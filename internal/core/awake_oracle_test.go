package core_test

import (
	"testing"

	"repro/internal/barrier"
	"repro/internal/core"
	"repro/internal/kernels"
)

// Brute-force awake-set oracle.
//
// Inside a run only the awake tickers tick; a quiesced core sleeps and is
// credited its per-cycle counters when it wakes or the run returns. Between
// runs — where the OS model preempts and the chaos harness reports — the
// set must equal what a scan of the cores yields, and the counters must be
// those a machine without the fast path computed cycle by cycle. This test
// stops three machines at every chunk boundary of a prime length and checks
// both against a NoFastPath twin: a filter barrier (cores park and sleep),
// a software barrier (cores spin, sleeping only behind LL/SC misses), and
// two-thread cores (slow tickers that never sleep).
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
				for i, c := range fast.Cores {
					s := slow.Cores[i]
					if c.Cycles != s.Cycles || c.FetchMissStalls != s.FetchMissStalls || c.FenceStalls != s.FenceStalls {
						t.Fatalf("cycle %d core %d: cycles/fetch-stall/fence-stall %d/%d/%d, NoFastPath twin %d/%d/%d",
							fast.Now(), i, c.Cycles, c.FetchMissStalls, c.FenceStalls, s.Cycles, s.FetchMissStalls, s.FenceStalls)
					}
				}
				chunks++
				for _, c := range fast.Cores {
					if c.Quiesced() {
						asleep++
					}
				}
			}
			// Two-thread cores never sleep; the others must have been caught
			// asleep at boundaries, or the run proves nothing.
			if chunks < 10 || tc.tpc == 1 && asleep == 0 {
				t.Fatalf("%d chunks, %d cores asleep at a boundary: too short to exercise sleeping across boundaries", chunks, asleep)
			}
		})
	}
}
