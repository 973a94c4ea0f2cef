package core_test

import (
	"testing"

	"repro/internal/barrier"
	"repro/internal/core"
	"repro/internal/interconnect"
	"repro/internal/kernels"
)

// TestHWBarWaitersSleep holds the fast path to putting barrier waiters to
// sleep: on microbench(16,8) with 64 threads, on every fabric, the machine
// ticks at most a bound share of the core cycles the run accounts. HWBAR
// waiters on the dedicated network (27-30 % ticked; 65-73 % while every
// waiter polled the network) sleep until their release, filter waiters
// (filter-d 2.2-4.7 %, filter-i-pp 6.7-15.8 %) until their parked fill
// returns. Results are byte-identical whether waiters sleep or not, so no
// differential would notice if they stopped; this bound does.
func TestHWBarWaitersSleep(t *testing.T) {
	const threads = 64
	for _, fab := range interconnect.Kinds {
		t.Run(fab.String(), func(t *testing.T) {
			for _, tc := range []struct {
				kind  barrier.Kind
				bound float64
			}{
				{barrier.KindHWNet, 0.40},
				{barrier.KindFilterD, 0.10},
				{barrier.KindFilterIPP, 0.32},
			} {
				t.Run(tc.kind.String(), func(t *testing.T) {
					cfg := core.DefaultConfig(threads)
					cfg.Mem.Fabric = fab
					gen, err := barrier.New(tc.kind, threads, barrier.NewAllocator(cfg.Mem))
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
					if share > tc.bound {
						t.Fatalf("%d of %d core cycles ticked (%.1f %% > %.0f %%): the barrier's waiters are not sleeping",
							m.CoreTicks(), total, 100*share, 100*tc.bound)
					}
				})
			}
		})
	}
}
