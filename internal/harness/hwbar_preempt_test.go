package harness

import (
	"fmt"
	"testing"

	"repro/internal/barrier"
	"repro/internal/faults"
	"repro/internal/kernels"
)

// TestHWBarPreemptIdentical runs the dedicated barrier network under every
// preempting profile, as a simd sweep cell with its defaults would: 8
// threads, registry-default kernel sizes, a 2M-cycle budget, seeds 1-3.
// Every cell must come out identical to the fault-free run, within 50,000
// cycles (the slowest takes about 38,000). A thread preempted inside a
// HWBAR wait would resume at the HWBAR and arrive a second time: the
// network counts one arrival too many, one thread parks for good, and the
// cell ends in silent data corruption or takes up to 55 times as many
// cycles. cpu.Core.Drained therefore holds an HWBAR wait on its core.
func TestHWBarPreemptIdentical(t *testing.T) {
	var profiles []faults.Profile
	for _, p := range faults.Profiles() {
		if p.WantsPreemption() {
			profiles = append(profiles, p)
		}
	}
	if len(profiles) != 3 {
		t.Fatalf("%d preempting profiles, want preempt, lock-preempt and migrate-storm", len(profiles))
	}
	preempted := 0
	for _, name := range []string{"livermore2", "autcor", "viterbi", "microbench"} {
		for _, p := range profiles {
			for seed := uint64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%s/%s/s%d", name, p.Name, seed), func(t *testing.T) {
					k, err := kernels.New(name, 0, 0)
					if err != nil {
						t.Fatal(err)
					}
					cell, err := RunChaosCell(k, barrier.KindHWNet, p, seed, 8, Options{Verify: true, MaxCycles: 2_000_000, Workers: 1})
					if err != nil || cell.Outcome != "identical" {
						t.Fatalf("outcome %q after %d cycles, %d injected, error %v: %s", cell.Outcome, cell.Cycles, cell.Injected, err, cell.Report)
					}
					if cell.Cycles > 50_000 {
						t.Fatalf("identical, but after %d cycles: a thread waited out a barrier it had already passed", cell.Cycles)
					}
					if cell.Injected > 0 {
						preempted++
					}
				})
			}
		}
	}
	t.Logf("%d of 36 cells preempted a thread", preempted)
	if preempted < 18 {
		t.Fatalf("only %d of 36 cells preempted a thread: too few to exercise the fix", preempted)
	}
}
