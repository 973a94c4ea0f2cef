package kernels

import (
	"fmt"
	"testing"

	"repro/internal/barrier"
	"repro/internal/core"
	"repro/internal/vet"
)

// runSeq builds and runs the sequential variant and verifies the result.
func runSeq(t *testing.T, k Kernel, maxCycles uint64) {
	t.Helper()
	p, err := k.BuildSeq()
	if err != nil {
		t.Fatalf("%s: build seq: %v", k.Name(), err)
	}
	m := core.NewMachine(core.DefaultConfig(1))
	m.Load(p)
	m.StartSPMD(p.Entry, 1)
	if _, err := m.Run(maxCycles); err != nil {
		t.Fatalf("%s seq: %v", k.Name(), err)
	}
	if err := k.Verify(m.Sys.Mem, p, 1); err != nil {
		t.Fatalf("%s seq: %v", k.Name(), err)
	}
}

// runPar builds and runs the parallel variant on nthreads cores with the
// given barrier kind, verifies, and returns the cycle count.
func runPar(t *testing.T, k Kernel, kind barrier.Kind, nthreads int, maxCycles uint64) uint64 {
	t.Helper()
	cfg := core.DefaultConfig(nthreads)
	alloc := barrier.NewAllocator(cfg.Mem)
	gen := barrier.MustNew(kind, nthreads, alloc)
	p, err := k.BuildPar(gen, nthreads)
	if err != nil {
		t.Fatalf("%s: build par: %v", k.Name(), err)
	}
	m := core.NewMachine(cfg)
	if err := barrier.Launch(m, gen, p, nthreads); err != nil {
		t.Fatalf("%s: launch: %v", k.Name(), err)
	}
	cycles, err := m.Run(maxCycles)
	if err != nil {
		t.Fatalf("%s par (%s, %d threads): %v", k.Name(), kind, nthreads, err)
	}
	if err := k.Verify(m.Sys.Mem, p, nthreads); err != nil {
		t.Fatalf("%s par (%s, %d threads): %v", k.Name(), kind, nthreads, err)
	}
	return cycles
}

// testKinds is the representative set used for per-kernel correctness (the
// full 7-way cross product runs in the slower integration test below).
var testKinds = []barrier.Kind{barrier.KindSWCentral, barrier.KindFilterI, barrier.KindFilterDPP}

func TestLivermore3(t *testing.T) {
	k := NewLivermore3(64, 3)
	runSeq(t, k, 2_000_000)
	for _, kind := range testKinds {
		t.Run(kind.String(), func(t *testing.T) {
			runPar(t, k, kind, 4, 5_000_000)
		})
	}
}

func TestLivermore2(t *testing.T) {
	k := NewLivermore2(64, 2)
	runSeq(t, k, 2_000_000)
	for _, kind := range testKinds {
		t.Run(kind.String(), func(t *testing.T) {
			runPar(t, k, kind, 4, 5_000_000)
		})
	}
}

func TestLivermore6(t *testing.T) {
	k := NewLivermore6(48, 1)
	runSeq(t, k, 5_000_000)
	for _, kind := range testKinds {
		t.Run(kind.String(), func(t *testing.T) {
			runPar(t, k, kind, 4, 10_000_000)
		})
	}
}

func TestChunkRule(t *testing.T) {
	cases := []struct {
		n, threads, min, wantChunk int
	}{
		{256, 16, 8, 16},
		{64, 16, 8, 8},  // line minimum kicks in
		{16, 16, 8, 8},  // only 2 threads get work
		{100, 16, 8, 8}, // ceil(100/16)=7 -> min 8
		{1024, 16, 8, 64},
	}
	for _, c := range cases {
		if got := Chunk(c.n, c.threads, c.min); got != c.wantChunk {
			t.Errorf("Chunk(%d,%d,%d) = %d, want %d", c.n, c.threads, c.min, got, c.wantChunk)
		}
	}
	// Ranges cover [0, n) without overlap.
	for _, n := range []int{16, 64, 100, 256, 1000} {
		covered := 0
		prevHi := 0
		for tid := 0; tid < 16; tid++ {
			lo, hi := ChunkRange(n, 16, 8, tid)
			if lo < prevHi {
				t.Errorf("ChunkRange overlap at n=%d tid=%d", n, tid)
			}
			covered += hi - lo
			prevHi = hi
		}
		if covered != n {
			t.Errorf("ChunkRange(n=%d) covers %d elements", n, covered)
		}
	}
}

// TestKernelsAllBarriers runs every kernel against every mechanism at 8
// threads (the full Figure 5-10 cross product in miniature).
func TestKernelsAllBarriers(t *testing.T) {
	if testing.Short() {
		t.Skip("cross product is slow")
	}
	kernels := []Kernel{
		NewLivermore1(64, 2),
		NewLivermore2(64, 1),
		NewLivermore3(64, 2),
		NewLivermore6(32, 1),
		NewAutcor(256, 4, 1),
		NewViterbi(32, 1),
		NewCoarseGrain(4, 64),
	}
	for _, k := range kernels {
		for _, kind := range barrier.Kinds {
			k, kind := k, kind
			t.Run(fmt.Sprintf("%s/%s", k.Name(), kind), func(t *testing.T) {
				runPar(t, k, kind, 8, 20_000_000)
			})
		}
	}
}

// TestKernelsVetClean: every registered kernel, sequential and under every
// barrier mechanism, must pass the static verifier with zero diagnostics.
// This is the "all shipped kernels vet clean" half of srvet's contract; the
// other half (every misuse pattern is caught) is vet's TestCorpus.
func TestKernelsVetClean(t *testing.T) {
	kinds := append(append([]barrier.Kind{}, barrier.Kinds...), barrier.ExtraKinds...)
	for _, name := range Names() {
		name := name
		t.Run(name+"/seq", func(t *testing.T) {
			k, err := New(name, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			p, err := k.BuildSeq()
			if err != nil {
				t.Fatal(err)
			}
			if ds := vet.Check(p, vet.Options{Threads: 1}); len(ds) != 0 {
				t.Errorf("%s seq: %v", k.Name(), vet.AsError(k.Name(), ds))
			}
		})
		for _, kind := range kinds {
			kind := kind
			for _, nthreads := range []int{2, 8} {
				nthreads := nthreads
				t.Run(fmt.Sprintf("%s/%s/t%d", name, kind, nthreads), func(t *testing.T) {
					k, err := New(name, 0, 0)
					if err != nil {
						t.Fatal(err)
					}
					cfg := core.DefaultConfig(nthreads)
					alloc := barrier.NewAllocator(cfg.Mem)
					gen, err := barrier.New(kind, nthreads, alloc)
					if err != nil {
						t.Skipf("generator: %v", err)
					}
					p, err := k.BuildPar(gen, nthreads)
					if err != nil {
						t.Fatal(err)
					}
					if ds := vet.Check(p, vet.Options{Threads: nthreads}); len(ds) != 0 {
						t.Errorf("%v", vet.AsError(k.Name()+"/"+kind.String(), ds))
					}
				})
			}
		}
	}
}

// TestKernelRegistry: names resolve, unknown names error.
func TestKernelRegistry(t *testing.T) {
	if len(Names()) < 7 {
		t.Fatalf("registry too small: %v", Names())
	}
	for _, name := range Names() {
		k, err := New(name, 0, 0)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if k.Name() == "" {
			t.Fatalf("kernel %q has empty Name()", name)
		}
	}
	if _, err := New("no-such-kernel", 0, 0); err == nil {
		t.Fatal("unknown kernel did not error")
	}
}

func TestAutcor(t *testing.T) {
	k := NewAutcor(256, 8, 1)
	runSeq(t, k, 10_000_000)
	for _, kind := range testKinds {
		t.Run(kind.String(), func(t *testing.T) {
			runPar(t, k, kind, 4, 10_000_000)
		})
	}
}

func TestViterbi(t *testing.T) {
	k := NewViterbi(48, 2)
	runSeq(t, k, 10_000_000)
	for _, kind := range testKinds {
		t.Run(kind.String(), func(t *testing.T) {
			runPar(t, k, kind, 4, 20_000_000)
		})
	}
}

func TestViterbiEncoderRoundTrip(t *testing.T) {
	for _, n := range []int{8, 33, 100} {
		k := NewViterbi(n, 1)
		got := k.reference()
		for i := 0; i < n; i++ {
			if got[i] != uint64(k.message[i]) {
				t.Fatalf("nbits=%d: decoded[%d] = %d, want %d", n, i, got[i], k.message[i])
			}
		}
	}
}

func TestLivermore1(t *testing.T) {
	k := NewLivermore1(64, 2)
	runSeq(t, k, 2_000_000)
	for _, kind := range testKinds {
		t.Run(kind.String(), func(t *testing.T) {
			runPar(t, k, kind, 4, 5_000_000)
		})
	}
}

// TestLivermore1BarrierInsensitive: with one barrier per pass, every
// mechanism performs within a few percent of the others (the paper's §4.4
// reason for excluding kernel 1 from the barrier study).
func TestLivermore1BarrierInsensitive(t *testing.T) {
	k := NewLivermore1(4096, 2)
	var times []uint64
	for _, kind := range []barrier.Kind{barrier.KindSWCentral, barrier.KindFilterD, barrier.KindHWNet} {
		times = append(times, runPar(t, k, kind, 8, 100_000_000))
	}
	min, max := times[0], times[0]
	for _, v := range times {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if float64(max-min)/float64(min) > 0.20 {
		t.Errorf("embarrassingly parallel kernel is barrier-sensitive: %v", times)
	}
}

func TestCoarseGrain(t *testing.T) {
	k := NewCoarseGrain(6, 128)
	runSeq(t, k, 5_000_000)
	for _, kind := range testKinds {
		t.Run(kind.String(), func(t *testing.T) {
			runPar(t, k, kind, 4, 10_000_000)
		})
	}
}

// TestCoarseGrainSmallBarrierImpact reproduces the §4.1 observation: with
// long compute phases, switching the barrier mechanism changes total time
// by only a few percent.
func TestCoarseGrainSmallBarrierImpact(t *testing.T) {
	k := NewCoarseGrain(20, 2048)
	sw := runPar(t, k, barrier.KindSWCentral, 8, 100_000_000)
	fi := runPar(t, k, barrier.KindFilterD, 8, 100_000_000)
	if fi >= sw {
		t.Skipf("filter (%d) not faster than software (%d) on this run", fi, sw)
	}
	improvement := float64(sw-fi) / float64(sw)
	if improvement > 0.25 {
		t.Errorf("coarse-grained improvement %.1f%% too large — phases are not coarse enough", improvement*100)
	}
	t.Logf("filter improves coarse-grained total time by %.1f%% (paper reports 3.5%% for Ocean)", improvement*100)
}

// TestRegistryRejectsSizes: sizes reach New from outside the program, so a
// size a kernel cannot be built at is an error naming it, never the typed
// constructor's panic or an allocation of gigabytes of operands.
func TestRegistryRejectsSizes(t *testing.T) {
	for _, tc := range []struct {
		name     string
		n, loops int
	}{
		{"livermore2", 100, 1},
		{"livermore2", 2, 1},
		{"livermore6", 1025, 1},
		{"pipeline", 1 << 11, 1 << 10},
		{"pipeline", 1 << 40, 1 << 40},
		{"autcor", 4, 1},
	} {
		if k, err := New(tc.name, tc.n, tc.loops); err == nil {
			t.Errorf("New(%s, %d, %d) = %s, want an error", tc.name, tc.n, tc.loops, k.Name())
		}
	}
	for _, tc := range []struct {
		name     string
		n, loops int
	}{{"livermore2", 4, 1}, {"livermore6", 1024, 1}, {"pipeline", 1 << 10, 1 << 10}, {"autcor", 8, 1}} {
		if _, err := New(tc.name, tc.n, tc.loops); err != nil {
			t.Errorf("New(%s, %d, %d): %v", tc.name, tc.n, tc.loops, err)
		}
	}
}
