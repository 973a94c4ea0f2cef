package barrier

import (
	"fmt"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/isa"
)

// emitPhaseChecker generates the classic barrier torture test: P phases; in
// each phase every thread bumps its own slot (one cache line per thread),
// crosses the barrier, then verifies every other thread's slot has reached
// the phase; a second barrier separates the check from the next phase's
// writes. Any barrier violation latches an error flag.
//
// Register use (barrier owns x24..x31): s0 = slot array base, s1 = phase,
// s2 = P, s3 = error flag, s4 = own slot address, s5 = error array base.
func emitPhaseChecker(b *asm.Builder, gen Generator, phases int) {
	const (
		s0 = isa.RegS0
		s1 = isa.RegS0 + 1
		s2 = isa.RegS0 + 2
		s3 = isa.RegS0 + 3
		s4 = isa.RegS0 + 4
		s5 = isa.RegS0 + 5
		t0 = isa.RegT0
		t1 = isa.RegT0 + 1
		t2 = isa.RegT0 + 2
	)
	b.LA(s0, "slots")
	b.LA(s5, "errs")
	b.SLLI(t0, isa.RegA0, 6) // tid * 64
	b.ADD(s4, s0, t0)
	b.LI(s1, 0)
	b.LI(s2, int64(phases))
	b.LI(s3, 0)

	loop := b.NewLabel("phase")
	b.Label(loop)
	b.ADDI(s1, s1, 1)
	b.ST(s1, s4, 0)
	gen.EmitBarrier(b)
	// Check every thread's slot.
	b.MV(t0, s0)
	b.LI(t1, 0)
	check := b.NewLabel("check")
	okj := b.NewLabel("okj")
	b.Label(check)
	b.LD(t2, t0, 0)
	b.BGE(t2, s1, okj)
	b.LI(s3, 1)
	b.Label(okj)
	b.ADDI(t0, t0, 64)
	b.ADDI(t1, t1, 1)
	b.BLT(t1, isa.RegA1, check)
	gen.EmitBarrier(b)
	b.BLT(s1, s2, loop)

	// Publish the error flag.
	b.SLLI(t0, isa.RegA0, 6)
	b.ADD(t0, s5, t0)
	b.ST(s3, t0, 0)

	b.AlignData(64)
	b.DataLabel("slots")
	b.Space(64 * 64)
	b.DataLabel("errs")
	b.Space(64 * 64)
}

// runPhaseChecker runs the torture test for one mechanism/thread count.
func runPhaseChecker(t *testing.T, kind Kind, nthreads, phases int, maxCycles uint64) *core.Machine {
	t.Helper()
	cfg := core.DefaultConfig(nthreads)
	alloc := NewAllocator(cfg.Mem)
	gen := MustNew(kind, nthreads, alloc)
	prog, err := BuildProgram(gen, func(b *asm.Builder) {
		emitPhaseChecker(b, gen, phases)
	})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	m := core.NewMachine(cfg)
	if err := Launch(m, gen, prog, nthreads); err != nil {
		t.Fatalf("launch: %v", err)
	}
	if _, err := m.Run(maxCycles); err != nil {
		t.Fatalf("run (%s, %d threads): %v", kind, nthreads, err)
	}
	slots := prog.MustSymbol("slots")
	errs := prog.MustSymbol("errs")
	for tid := 0; tid < nthreads; tid++ {
		if got := m.Sys.Mem.ReadUint64(slots + uint64(tid*64)); got != uint64(phases) {
			t.Errorf("%s: thread %d finished %d phases, want %d", kind, tid, got, phases)
		}
		if e := m.Sys.Mem.ReadUint64(errs + uint64(tid*64)); e != 0 {
			t.Errorf("%s: thread %d observed a barrier violation", kind, tid)
		}
	}
	return m
}

func TestBarrierCorrectness(t *testing.T) {
	for _, kind := range Kinds {
		for _, n := range []int{2, 4, 8} {
			kind, n := kind, n
			t.Run(fmt.Sprintf("%s/%d", kind, n), func(t *testing.T) {
				runPhaseChecker(t, kind, n, 12, 8_000_000)
			})
		}
	}
}

func TestBarrierCorrectness16(t *testing.T) {
	if testing.Short() {
		t.Skip("16-thread torture test is slow")
	}
	for _, kind := range Kinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			runPhaseChecker(t, kind, 16, 8, 20_000_000)
		})
	}
}

// TestIFilterWithPrefetcher: with a next-line instruction prefetcher
// enabled, prefetch fills that touch arrival stubs are filtered rather than
// faulted, and the barrier still behaves correctly (§3.4.1: "Prefetching
// cannot trigger an early opening of the barrier").
func TestIFilterWithPrefetcher(t *testing.T) {
	for _, kind := range []Kind{KindFilterI, KindFilterIPP} {
		t.Run(kind.String(), func(t *testing.T) {
			cfg := core.DefaultConfig(4)
			cfg.Mem.L1INextLinePrefetch = true
			alloc := NewAllocator(cfg.Mem)
			gen := MustNew(kind, 4, alloc)
			prog, err := BuildProgram(gen, func(b *asm.Builder) {
				emitPhaseChecker(b, gen, 8)
			})
			if err != nil {
				t.Fatal(err)
			}
			m := core.NewMachine(cfg)
			if err := Launch(m, gen, prog, 4); err != nil {
				t.Fatal(err)
			}
			if _, err := m.Run(8_000_000); err != nil {
				t.Fatalf("run with prefetcher: %v", err)
			}
			slots := prog.MustSymbol("slots")
			for tid := 0; tid < 4; tid++ {
				if got := m.Sys.Mem.ReadUint64(slots + uint64(tid*64)); got != 8 {
					t.Errorf("thread %d finished %d phases, want 8", tid, got)
				}
			}
		})
	}
}

// TestTwoIndependentFilterBarriers runs a program that alternates between
// two distinct filter barriers (as a real application with two barrier
// variables would), exercising multiple filters resident in the banks at
// once.
func TestTwoIndependentFilterBarriers(t *testing.T) {
	const n = 4
	cfg := core.DefaultConfig(n)
	alloc := NewAllocator(cfg.Mem)
	genA := MustNew(KindFilterD, n, alloc)
	genB := MustNew(KindFilterI, n, alloc)

	b := asm.NewBuilder(core.TextBase, core.DataBase)
	genA.EmitSetup(b)
	// genB's setup uses the same pinned registers; interleave by saving
	// A's addresses in s0/s1 around B's setup.
	b.MV(isa.RegS0, RegB1)
	b.MV(isa.RegS0+1, RegB2)
	genB.EmitSetup(b)
	b.MV(isa.RegS0+2, RegB1) // B arrival
	b.MV(isa.RegS0+3, RegB2) // B exit

	// 6 alternating episodes, bumping a per-thread counter each time.
	b.LA(isa.RegT0+5, "counts")
	b.SLLI(isa.RegT0+4, isa.RegA0, 6)
	b.ADD(isa.RegT0+5, isa.RegT0+5, isa.RegT0+4)
	for i := 0; i < 3; i++ {
		// Barrier A.
		b.MV(RegB1, isa.RegS0)
		b.MV(RegB2, isa.RegS0+1)
		genA.EmitBarrier(b)
		b.MV(isa.RegS0, RegB1) // ping-pongless, but keep registers in sync
		b.MV(isa.RegS0+1, RegB2)
		b.LD(isa.RegT0, isa.RegT0+5, 0)
		b.ADDI(isa.RegT0, isa.RegT0, 1)
		b.ST(isa.RegT0, isa.RegT0+5, 0)
		// Barrier B.
		b.MV(RegB1, isa.RegS0+2)
		b.MV(RegB2, isa.RegS0+3)
		genB.EmitBarrier(b)
		b.MV(isa.RegS0+2, RegB1)
		b.MV(isa.RegS0+3, RegB2)
		b.LD(isa.RegT0, isa.RegT0+5, 0)
		b.ADDI(isa.RegT0, isa.RegT0, 1)
		b.ST(isa.RegT0, isa.RegT0+5, 0)
	}
	b.HALT()
	genA.EmitAux(b)
	genB.EmitAux(b)
	b.AlignData(64)
	b.DataLabel("counts")
	b.Space(n * 64)

	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := core.NewMachine(cfg)
	m.Load(prog)
	if err := genA.Install(m, prog); err != nil {
		t.Fatal(err)
	}
	if err := genB.Install(m, prog); err != nil {
		t.Fatal(err)
	}
	m.StartSPMD(prog.Entry, n)
	if _, err := m.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	counts := prog.MustSymbol("counts")
	for tid := 0; tid < n; tid++ {
		if got := m.Sys.Mem.ReadUint64(counts + uint64(tid*64)); got != 6 {
			t.Errorf("thread %d count = %d, want 6", tid, got)
		}
	}
	// Both barriers' filters must have opened 3 times each.
	fa := genA.(HardwareBarrier).Filters()[0]
	fb := genB.(HardwareBarrier).Filters()[0]
	if fa.Openings != 3 || fb.Openings != 3 {
		t.Errorf("openings A=%d B=%d, want 3 each", fa.Openings, fb.Openings)
	}
}

// TestExtraBarriersCorrectness runs the torture test on the two extra
// software mechanisms (ticket-lock and array-based).
func TestExtraBarriersCorrectness(t *testing.T) {
	for _, kind := range ExtraKinds {
		for _, n := range []int{2, 4, 8} {
			kind, n := kind, n
			t.Run(fmt.Sprintf("%s/%d", kind, n), func(t *testing.T) {
				cfg := core.DefaultConfig(n)
				alloc := NewAllocator(cfg.Mem)
				gen, err := New(kind, n, alloc)
				if err != nil {
					t.Fatal(err)
				}
				prog, err := BuildProgram(gen, func(b *asm.Builder) {
					emitPhaseChecker(b, gen, 10)
				})
				if err != nil {
					t.Fatal(err)
				}
				m := core.NewMachine(cfg)
				if err := Launch(m, gen, prog, n); err != nil {
					t.Fatal(err)
				}
				if _, err := m.Run(10_000_000); err != nil {
					t.Fatal(err)
				}
				slots := prog.MustSymbol("slots")
				errsBase := prog.MustSymbol("errs")
				for tid := 0; tid < n; tid++ {
					if got := m.Sys.Mem.ReadUint64(slots + uint64(tid*64)); got != 10 {
						t.Errorf("thread %d finished %d phases, want 10", tid, got)
					}
					if e := m.Sys.Mem.ReadUint64(errsBase + uint64(tid*64)); e != 0 {
						t.Errorf("thread %d observed a barrier violation", tid)
					}
				}
			})
		}
	}
}

// measureLatency runs the Figure 4 microbenchmark for one generator.
func measureLatency(t *testing.T, gen Generator, cfg core.Config, n int) float64 {
	t.Helper()
	const K, M = 16, 4
	prog, err := BuildProgram(gen, func(b *asm.Builder) {
		b.LI(isa.RegS0, M)
		outer := b.NewLabel("outer")
		b.Label(outer)
		for i := 0; i < K; i++ {
			gen.EmitBarrier(b)
		}
		b.ADDI(isa.RegS0, isa.RegS0, -1)
		b.BNEZ(isa.RegS0, outer)
	})
	if err != nil {
		t.Fatal(err)
	}
	m := core.NewMachine(cfg)
	if err := Launch(m, gen, prog, n); err != nil {
		t.Fatal(err)
	}
	cycles, err := m.Run(200_000_000)
	if err != nil {
		t.Fatal(err)
	}
	return float64(cycles) / (K * M)
}

// TestCullerClaim checks the claim the paper cites from Culler/Singh/Gupta:
// the centralized sense-reversal barrier is "faster than or as fast as"
// the ticket-lock variant at 16 threads. (The array-based barrier, which
// trades atomics for O(n) private-line flags, is reported for context but
// not asserted — on this memory system it is the fastest software barrier.)
func TestCullerClaim(t *testing.T) {
	const n = 16
	mk := func(kind Kind) float64 {
		cfg := core.DefaultConfig(n)
		alloc := NewAllocator(cfg.Mem)
		gen, err := New(kind, n, alloc)
		if err != nil {
			t.Fatal(err)
		}
		return measureLatency(t, gen, cfg, n)
	}
	sense := mk(KindSWCentral)
	ticket := mk(KindSWTicket)
	array := mk(KindSWArray)
	t.Logf("sense-reversal %.0f, ticket %.0f, array %.0f cycles/barrier", sense, ticket, array)
	if sense > ticket*1.1 {
		t.Errorf("sense-reversal (%.0f) slower than ticket (%.0f): contradicts the cited claim", sense, ticket)
	}
}

// TestTreeDepth: a reduction tree's depth follows its fan-in: a binary tree
// over 16 threads has 4 levels, a quad tree 2, and one thread none.
func TestTreeDepth(t *testing.T) {
	for _, c := range []struct {
		n, fanIn int
		want     uint64
	}{{16, 2, 4}, {16, 4, 2}, {64, 4, 3}, {5, 4, 2}, {1, 4, 0}} {
		if got := depth(c.n, c.fanIn); got != c.want {
			t.Errorf("depth(%d, %d) = %d, want %d", c.n, c.fanIn, got, c.want)
		}
	}
}

// TestHWTreeBarrier: the T3E-style virtual tree synchronizes correctly and
// sits between the flat dedicated network and the filter barriers in
// latency.
func TestHWTreeBarrier(t *testing.T) {
	const n = 16
	mkLat := func(kind Kind) float64 {
		cfg := core.DefaultConfig(n)
		alloc := NewAllocator(cfg.Mem)
		gen, err := New(kind, n, alloc)
		if err != nil {
			t.Fatal(err)
		}
		return measureLatency(t, gen, cfg, n)
	}
	// Correctness first.
	cfg := core.DefaultConfig(n)
	alloc := NewAllocator(cfg.Mem)
	gen, err := New(KindHWTree, n, alloc)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := BuildProgram(gen, func(b *asm.Builder) {
		emitPhaseChecker(b, gen, 8)
	})
	if err != nil {
		t.Fatal(err)
	}
	m := core.NewMachine(cfg)
	if err := Launch(m, gen, prog, n); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(20_000_000); err != nil {
		t.Fatal(err)
	}
	errsBase := prog.MustSymbol("errs")
	for tid := 0; tid < n; tid++ {
		if e := m.Sys.Mem.ReadUint64(errsBase + uint64(tid*64)); e != 0 {
			t.Fatalf("thread %d observed a barrier violation", tid)
		}
	}
	// Latency ordering: flat < tree < filter.
	flat := mkLat(KindHWNet)
	tree := mkLat(KindHWTree)
	filt := mkLat(KindFilterIPP)
	if !(flat < tree && tree < filt) {
		t.Errorf("latency ordering violated: flat %.0f, tree %.0f, filter %.0f", flat, tree, filt)
	}
}
