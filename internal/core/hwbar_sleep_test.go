package core_test

import (
	"testing"

	"repro/internal/barrier"
	"repro/internal/core"
	"repro/internal/interconnect"
	"repro/internal/kernels"
)

// TestHWBarWaitersSleep holds the fast path to putting HWBAR waiters to
// sleep: on microbench(16,8) with 64 threads on the dedicated barrier
// network, the machine ticks at most 40 % of the core cycles the run
// accounts (about 65-73 % while every waiter polled the network, 27-30 %
// with waiters asleep until their release).
func TestHWBarWaitersSleep(t *testing.T) {
	const threads = 64
	for _, fab := range interconnect.Kinds {
		t.Run(fab.String(), func(t *testing.T) {
			cfg := core.DefaultConfig(threads)
			cfg.Mem.Fabric = fab
			gen, err := barrier.New(barrier.KindHWNet, threads, barrier.NewAllocator(cfg.Mem))
			if err != nil {
				t.Fatal(err)
			}
			k, err := kernels.New("microbench", 16, 8)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := k.BuildPar(gen, threads)
			if err != nil {
				t.Fatal(err)
			}
			m, err := core.NewMachineChecked(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := barrier.Install(m, gen, prog); err != nil {
				t.Fatal(err)
			}
			m.StartSPMD(prog.Entry, threads)
			if _, err := m.Run(5_000_000); err != nil {
				t.Fatal(err)
			}
			total := m.StatsReport().Snapshot()["core.cycles_total"]
			share := float64(m.CoreTicks()) / float64(total)
			t.Logf("%d of %d core cycles ticked (%.1f %%)", m.CoreTicks(), total, 100*share)
			if share > 0.40 {
				t.Fatalf("%d of %d core cycles ticked (%.1f %%): HWBAR waiters are not sleeping", m.CoreTicks(), total, 100*share)
			}
		})
	}
}
