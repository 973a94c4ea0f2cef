package core_test

import (
	"fmt"
	"testing"

	"repro/internal/barrier"
	"repro/internal/core"
	"repro/internal/interconnect"
	"repro/internal/kernels"
)

// TestMissGateSkips holds the miss queue's release gate (DESIGN.md §6,
// "Wakeup/select") to skipping: on the benchmark's spin16 cells, software
// barriers whose waiters stall on the flag line's fill, the cores scan a
// non-empty miss queue on at most 15 % of their ticked cycles (2.8-11.1 %
// per cell; 31-51 % when every tick scanned). Results are byte-identical
// whether the gate skips or not, so no differential would notice if it
// stopped; this bound does.
func TestMissGateSkips(t *testing.T) {
	const bound = 0.15
	for _, tc := range []struct {
		kernel          string
		n, loops, cores int
		kind            barrier.Kind
		fabric          interconnect.Kind
	}{
		{"livermore2", 0, 0, 16, barrier.KindSWCentral, interconnect.KindBus},
		{"livermore3", 0, 0, 16, barrier.KindSWTree, interconnect.KindBus},
		{"autcor", 0, 0, 16, barrier.KindSWCentral, interconnect.KindBus},
		{"viterbi", 32, 1, 16, barrier.KindSWTree, interconnect.KindBus},
		{"viterbi", 24, 1, 16, barrier.KindSWCentral, interconnect.KindCrossbar},
		{"microbench", 4, 2, 32, barrier.KindSWCentral, interconnect.KindMesh},
	} {
		t.Run(fmt.Sprintf("%s/%s/%s", tc.kernel, tc.kind, tc.fabric), func(t *testing.T) {
			cfg := core.DefaultConfig(tc.cores)
			cfg.Mem.Fabric = tc.fabric
			gen, err := barrier.New(tc.kind, tc.cores, barrier.NewAllocator(cfg.Mem))
			if err != nil {
				t.Fatal(err)
			}
			k, err := kernels.New(tc.kernel, tc.n, tc.loops)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := k.BuildPar(gen, tc.cores)
			if err != nil {
				t.Fatal(err)
			}
			m, err := core.NewMachineChecked(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := barrier.Launch(m, gen, prog, tc.cores); err != nil {
				t.Fatal(err)
			}
			if _, err := m.Run(5_000_000); err != nil {
				t.Fatal(err)
			}
			scans, ticks := m.MissScans(), m.CoreTicks()
			share := float64(scans) / float64(ticks)
			t.Logf("%d miss-queue scans in %d ticked core cycles (%.1f %%)", scans, ticks, 100*share)
			if share > bound {
				t.Fatalf("%d miss-queue scans in %d ticked core cycles (%.1f %% > %.0f %%): the gate is not skipping",
					scans, ticks, 100*share, 100*bound)
			}
		})
	}
}
