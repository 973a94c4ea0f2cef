// Differential test for the quiescent-core fast path: every configuration
// must produce bit-identical cycle counts, statistics, and outcomes with the
// fast path on and off. The fast path only ever skips pipeline ticks it has
// proved to be no-ops (and credits their per-cycle counters), so any
// divergence here is a bug in that proof.
package cmpfb

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/barrier"
	"repro/internal/core"
	"repro/internal/interconnect"
	"repro/internal/kernels"
)

type fastSlowResult struct {
	cycles  uint64
	stats   string
	errText string
}

// runVariant runs one barrier workload on a fresh machine with the given
// fast-path setting.
func runVariant(t *testing.T, cores int, kind barrier.Kind,
	build func(gen barrier.Generator) (*asm.Program, error),
	tweak func(cfg *core.Config), noFastPath bool) fastSlowResult {
	t.Helper()
	cfg := core.DefaultConfig(cores)
	cfg.NoFastPath = noFastPath
	if tweak != nil {
		tweak(&cfg)
	}
	alloc := barrier.NewAllocator(cfg.Mem)
	gen, err := barrier.New(kind, cores, alloc)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := build(gen)
	if err != nil {
		t.Fatal(err)
	}
	m := core.NewMachine(cfg)
	if err := barrier.Launch(m, gen, prog, cores); err != nil {
		t.Fatal(err)
	}
	cycles, err := m.Run(100_000_000)
	res := fastSlowResult{cycles: cycles, stats: m.StatsReport().String()}
	if err != nil {
		res.errText = err.Error()
	}
	return res
}

func compareFastSlow(t *testing.T, fast, slow fastSlowResult) {
	t.Helper()
	if fast.errText != slow.errText {
		t.Fatalf("error diverged:\nfast: %q\nslow: %q", fast.errText, slow.errText)
	}
	if fast.cycles != slow.cycles {
		t.Fatalf("cycle count diverged: fast %d, slow %d", fast.cycles, slow.cycles)
	}
	if fast.stats != slow.stats {
		t.Fatalf("statistics diverged:\n--- fast ---\n%s--- slow ---\n%s", fast.stats, slow.stats)
	}
}

func TestFastPathDifferential(t *testing.T) {
	cases := []struct {
		name  string
		cores int
		kind  barrier.Kind
		build func(gen barrier.Generator) (*asm.Program, error)
		tweak func(cfg *core.Config)
	}{
		{
			// The fast path's main target: threads starved on parked
			// fills at a D-cache filter barrier.
			name: "microbench-filterD-16", cores: 16, kind: barrier.KindFilterD,
			build: func(gen barrier.Generator) (*asm.Program, error) {
				mb := &kernels.Microbench{K: 8, M: 4}
				return mb.BuildPar(gen, 16)
			},
		},
		{
			// Ping-pong filter variant with the hardware timeout armed
			// (exercises the filter's next-event query).
			name: "microbench-filterDPP-timeout-8", cores: 8, kind: barrier.KindFilterDPP,
			build: func(gen barrier.Generator) (*asm.Program, error) {
				mb := &kernels.Microbench{K: 8, M: 4}
				return mb.BuildPar(gen, 8)
			},
			tweak: func(cfg *core.Config) { cfg.FilterTimeout = 50_000 },
		},
		{
			// Software spin barrier: a core quiesces whenever its window
			// fills behind the barrier's LL/SC miss (the spin loads are
			// parked on the SC's unresolved address, off the ready list),
			// while its neighbours keep spinning on hits — the partial
			// per-core skip rather than the bulk fast-forward.
			name: "livermore2-swcentral-8", cores: 8, kind: barrier.KindSWCentral,
			build: func(gen barrier.Generator) (*asm.Program, error) {
				return kernels.NewLivermore2(64, 2).BuildPar(gen, 8)
			},
		},
		{
			// The same windows at the scoreboard's spin16 scale, on the
			// combining tree (pairwise flags instead of one hot counter).
			name: "livermore2-swtree-16", cores: 16, kind: barrier.KindSWTree,
			build: func(gen barrier.Generator) (*asm.Program, error) {
				return kernels.NewLivermore2(64, 2).BuildPar(gen, 16)
			},
		},
		{
			// ...and on the crossbar, where the LL/SC miss returns sooner
			// and invalidations arrive in a different order.
			name: "livermore2-swcentral-16-xbar", cores: 16, kind: barrier.KindSWCentral,
			build: func(gen barrier.Generator) (*asm.Program, error) {
				return kernels.NewLivermore2(64, 2).BuildPar(gen, 16)
			},
			tweak: func(cfg *core.Config) { cfg.Mem.Fabric = interconnect.KindCrossbar },
		},
		{
			// Hardware-lock critical sections (parked acquire loads) closed
			// by a software barrier: both kinds of stall in one run.
			name: "lockreduce-swcentral-8", cores: 8, kind: barrier.KindSWCentral,
			build: func(gen barrier.Generator) (*asm.Program, error) {
				return kernels.NewLockReduce(128, 4).BuildPar(gen, 8)
			},
		},
		{
			// Real kernel on the filter barrier with a shared data bus.
			name: "viterbi-filterI-4-sharedbus", cores: 4, kind: barrier.KindFilterI,
			build: func(gen barrier.Generator) (*asm.Program, error) {
				return kernels.NewViterbi(32, 2).BuildPar(gen, 4)
			},
			tweak: func(cfg *core.Config) { cfg.Mem.SharedDataBus = true },
		},
		{
			// Dedicated barrier network (HWBAR never quiesces; the skip
			// logic must stay out of the way).
			name: "autcor-hwnet-8", cores: 8, kind: barrier.KindHWNet,
			build: func(gen barrier.Generator) (*asm.Program, error) {
				return kernels.NewAutcor(128, 4, 2).BuildPar(gen, 8)
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			slow := runVariant(t, tc.cores, tc.kind, tc.build, tc.tweak, true)
			fast := runVariant(t, tc.cores, tc.kind, tc.build, tc.tweak, false)
			compareFastSlow(t, fast, slow)
		})
	}
}

// TestFastPathDifferentialSeq covers the single-core sequential path (no
// barrier at all): long DRAM stalls are where a lone core quiesces.
func TestFastPathDifferentialSeq(t *testing.T) {
	run := func(noFastPath bool) fastSlowResult {
		cfg := core.DefaultConfig(1)
		cfg.NoFastPath = noFastPath
		prog, err := kernels.NewLivermore3(128, 2).BuildSeq()
		if err != nil {
			t.Fatal(err)
		}
		m := core.NewMachine(cfg)
		m.Load(prog)
		m.StartSPMD(prog.Entry, 1)
		cycles, err := m.Run(100_000_000)
		res := fastSlowResult{cycles: cycles, stats: m.StatsReport().String()}
		if err != nil {
			res.errText = err.Error()
		}
		return res
	}
	compareFastSlow(t, run(false), run(true))
}

// TestFastPathDeadlockIdentical checks that a true deadlock (a barrier
// waiting for a thread that never arrives, no timeout) reports the same
// cycle-limit error at the same cycle either way: with every core quiesced
// and no memory event pending, the bulk fast-forward jumps straight to the
// limit the slow path crawls to.
func TestFastPathDeadlockIdentical(t *testing.T) {
	run := func(noFastPath bool) fastSlowResult {
		cfg := core.DefaultConfig(4)
		cfg.NoFastPath = noFastPath
		alloc := barrier.NewAllocator(cfg.Mem)
		gen, err := barrier.New(barrier.KindFilterD, 4, alloc)
		if err != nil {
			t.Fatal(err)
		}
		mb := &kernels.Microbench{K: 4, M: 2}
		prog, err := mb.BuildPar(gen, 4)
		if err != nil {
			t.Fatal(err)
		}
		m := core.NewMachine(cfg)
		if err := barrier.Launch(m, gen, prog, 4); err != nil {
			t.Fatal(err)
		}
		// Pull one of the 4 registered threads off its core before it
		// runs: the barrier never opens and the other 3 starve forever.
		if _, _, err := m.Cores[3].Deschedule(); err != nil {
			t.Fatal(err)
		}
		cycles, err := m.Run(2_000_000)
		res := fastSlowResult{cycles: cycles, stats: m.StatsReport().String()}
		if err != nil {
			res.errText = err.Error()
		}
		return res
	}
	fast, slow := run(false), run(true)
	if fast.errText == "" {
		t.Fatal("expected a cycle-limit error from the deadlocked barrier")
	}
	compareFastSlow(t, fast, slow)
}
