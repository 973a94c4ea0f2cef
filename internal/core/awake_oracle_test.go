package core_test

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"repro/internal/barrier"
	"repro/internal/core"
	"repro/internal/kernels"
)

// Brute-force awake-set oracle.
//
// Inside a run only the awake tickers tick; a quiesced core sleeps and is
// credited its per-cycle counters when it wakes or the run returns, and a
// periodic one is advanced by whole periods and steps the rest. Between
// runs — where the OS model preempts and the chaos harness reports — the
// set must equal what a scan of the cores yields, and everything a sleeper
// skipped must be as a machine without the fast path computed it cycle by
// cycle: the full stats report, every core's pc and registers, and both L1s
// of every core. This test stops four machines at every chunk boundary of a
// prime length and checks them against a NoFastPath twin: a filter barrier
// (cores park and sleep), two software barriers (cores spin on L1 hits and
// sleep periodically, and sleep behind LL/SC misses), and two-thread cores
// (slow tickers that never sleep).
func TestAwakeSetOracle(t *testing.T) {
	const chunk = 97
	cases := []struct {
		name   string
		kind   barrier.Kind
		kernel string
		tpc    int
	}{
		{"filter-d", barrier.KindFilterD, "livermore2", 1},
		{"sw-central", barrier.KindSWCentral, "livermore3", 1},
		{"sw-tree", barrier.KindSWTree, "livermore3", 1},
		{"threads-per-core-2", barrier.KindFilterD, "livermore2", 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const threads = 8
			boot := func(noFastPath bool) *core.Machine {
				cfg := core.DefaultConfig(threads / tc.tpc)
				cfg.ThreadsPerCore = tc.tpc
				cfg.NoFastPath = noFastPath
				gen, err := barrier.New(tc.kind, threads, barrier.NewAllocator(cfg.Mem))
				if err != nil {
					t.Fatal(err)
				}
				k, err := kernels.New(tc.kernel, 64, 2)
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
				if err := barrier.Launch(m, gen, prog, threads); err != nil {
					t.Fatal(err)
				}
				return m
			}
			fast, slow := boot(false), boot(true)
			chunks, asleep := 0, 0
			for target := uint64(chunk); fast.Running() || slow.Running(); target += chunk {
				if target > 5_000_000 {
					t.Fatal("no completion within 5M cycles")
				}
				if err := fast.RunUntil(target); err != nil {
					t.Fatal(err)
				}
				if err := slow.RunUntil(target); err != nil {
					t.Fatal(err)
				}
				for _, m := range []*core.Machine{fast, slow} {
					if err := m.CheckAwake(); err != nil {
						t.Fatal(err)
					}
				}
				if fast.Now() != slow.Now() {
					t.Fatalf("stopped at cycle %d, NoFastPath twin at %d", fast.Now(), slow.Now())
				}
				if err := sameState(fast, slow); err != nil {
					t.Fatalf("cycle %d: %v", fast.Now(), err)
				}
				chunks++
				for _, c := range fast.Cores {
					if c.Quiesced() {
						asleep++
					}
				}
			}
			// Two-thread cores never sleep; the others must have been caught
			// asleep at boundaries, and the spinning ones periodically asleep,
			// or the run proves nothing.
			_, spun := fast.SpinCounts()
			if chunks < 10 || tc.tpc == 1 && asleep == 0 || (tc.kind == barrier.KindSWCentral || tc.kind == barrier.KindSWTree) && spun == 0 {
				t.Fatalf("%d chunks, %d cores quiesced and %d periodically asleep at a boundary: too short to exercise sleeping across boundaries",
					chunks, asleep, spun)
			}
		})
	}
}

// sameState compares everything a sleeper's credit or replay must restore
// with the NoFastPath twin's: the full stats report, every core's pc and
// registers, and the lines of every core's two L1s.
func sameState(fast, slow *core.Machine) error {
	if a, b := fast.StatsReport().Snapshot(), slow.StatsReport().Snapshot(); !maps.Equal(a, b) {
		for k, v := range a {
			if b[k] != v {
				return fmt.Errorf("stat %s = %d, NoFastPath twin %d", k, v, b[k])
			}
		}
		return fmt.Errorf("stats keys differ from the NoFastPath twin's")
	}
	for i, c := range fast.Cores {
		pc, regs := c.Context()
		spc, sregs := slow.Cores[i].Context()
		if pc != spc || regs != sregs {
			return fmt.Errorf("core %d: pc %#x regs %v, NoFastPath twin pc %#x regs %v", i, pc, regs, spc, sregs)
		}
	}
	for p := range fast.Sys.L1D {
		if !slices.Equal(fast.Sys.L1D[p].Snapshot(), slow.Sys.L1D[p].Snapshot()) ||
			!slices.Equal(fast.Sys.L1I[p].Snapshot(), slow.Sys.L1I[p].Snapshot()) {
			return fmt.Errorf("physical core %d: L1 lines differ from the NoFastPath twin's", p)
		}
	}
	return nil
}
