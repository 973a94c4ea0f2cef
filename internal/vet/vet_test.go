package vet

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/kernels"
)

// TestCorpus: every misuse program in the corpus must yield exactly its
// diagnostic, attributed to the labelled instruction.
func TestCorpus(t *testing.T) {
	for _, e := range loadCorpus(t) {
		e := e
		t.Run(e.name, func(t *testing.T) {
			ds := Check(e.prog, Options{Threads: e.threads})
			if len(ds) == 0 {
				t.Fatalf("want %s, got no diagnostics", e.want)
			}
			found := false
			for _, d := range ds {
				if d.Code != e.want {
					t.Errorf("unexpected diagnostic %s", d)
					continue
				}
				if strings.HasPrefix(d.Pos, e.wantPos) {
					found = true
				}
			}
			if !found {
				t.Errorf("no %s diagnostic at %q; got %v", e.want, e.wantPos, ds)
			}
		})
	}
}

// TestCleanDFilterProgram: a correct D-filter arrival sequence around a
// properly partitioned store vets clean.
func TestCleanDFilterProgram(t *testing.T) {
	b := asm.NewBuilder(core.TextBase, core.DataBase)
	dSetup(b)
	// Partitioned store: one 64-byte cell per thread.
	b.LI(isa.RegT0, 64)
	b.MUL(isa.RegT0, isa.RegT0, isa.RegA0)
	b.LI(cT1, core.DataBase)
	b.ADD(isa.RegT0, isa.RegT0, cT1)
	b.ST(cT1, isa.RegT0, 0)
	dBarrier(b)
	// Thread 0 publishes a result after the barrier.
	b.BNEZ(isa.RegA0, "done")
	b.LI(isa.RegT0, core.DataBase+0x1000)
	b.ST(cT1, isa.RegT0, 0)
	b.Label("done")
	b.HALT()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if ds := Check(p, Options{Threads: 8}); len(ds) != 0 {
		t.Fatalf("clean program reported: %v", ds)
	}
}

// TestSpinLoadWithoutFilters: only loads from filter-watched lines (an
// inferred ICBI/DCBI target) are stall-checked — a software barrier's spin
// loop must not trip load-before-invalidate.
func TestSpinLoadWithoutFilters(t *testing.T) {
	b := asm.NewBuilder(core.TextBase, core.DataBase)
	b.LI(cB1, core.BarrierRegion)
	b.Label("spin")
	b.LD(isa.RegT6, cB1, 0)
	b.BEQZ(isa.RegT6, "spin")
	b.HALT()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if ds := Check(p, Options{Threads: 4}); len(ds) != 0 {
		t.Fatalf("spin loop reported: %v", ds)
	}
}

// TestTidGuardSuppressesSharedStore: a store all threads aim at one address
// is a race — unless a thread-id guard restricts it to one thread.
func TestTidGuardSuppressesSharedStore(t *testing.T) {
	build := func(guard bool) *asm.Program {
		b := asm.NewBuilder(core.TextBase, core.DataBase)
		if guard {
			b.BNEZ(isa.RegA0, "skip")
		}
		b.LI(isa.RegT0, core.DataBase)
		b.ST(isa.RegT0, isa.RegT0, 0)
		b.Label("skip")
		b.HALT()
		p, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	if ds := Check(build(true), Options{Threads: 4}); len(ds) != 0 {
		t.Fatalf("guarded shared store reported: %v", ds)
	}
	ds := Check(build(false), Options{Threads: 4})
	if len(ds) != 1 || ds[0].Code != CodeCrossPartitionStore {
		t.Fatalf("unguarded shared store: want one %s, got %v", CodeCrossPartitionStore, ds)
	}
}

// TestSingleThreadSilencesRaces: with one thread there are no partitions to
// escape.
func TestSingleThreadSilencesRaces(t *testing.T) {
	for _, e := range loadCorpus(t) {
		if e.name != "cross-partition-store" {
			continue
		}
		if ds := Check(e.prog, Options{Threads: 1}); len(ds) != 0 {
			t.Fatalf("single-thread run reported: %v", ds)
		}
	}
}

// TestStructuralDiagnostics covers the CFG-level codes.
func TestStructuralDiagnostics(t *testing.T) {
	t.Run("fall-off-end", func(t *testing.T) {
		b := asm.NewBuilder(core.TextBase, core.DataBase)
		b.LI(isa.RegT0, 1) // no halt
		p, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		ds := Check(p, Options{})
		if len(ds) == 0 || ds[0].Code != CodeFallOffEnd {
			t.Fatalf("want %s, got %v", CodeFallOffEnd, ds)
		}
	})
	t.Run("no-text", func(t *testing.T) {
		p := &asm.Program{Entry: 0x1234}
		ds := Check(p, Options{})
		if len(ds) != 1 || ds[0].Code != CodeNoText {
			t.Fatalf("want %s, got %v", CodeNoText, ds)
		}
	})
}

func TestAsError(t *testing.T) {
	if err := AsError("k", nil); err != nil {
		t.Fatalf("clean program produced error %v", err)
	}
	ds := make([]Diagnostic, 12)
	for i := range ds {
		ds[i] = Diagnostic{Code: CodeDeadCode, Addr: uint64(i), Msg: "x"}
	}
	err := AsError("k", ds)
	if err == nil {
		t.Fatal("want error")
	}
	if !strings.Contains(err.Error(), "12 diagnostic(s)") || !strings.Contains(err.Error(), "and 4 more") {
		t.Fatalf("error truncation wrong: %v", err)
	}
}

// TestDiagnosticString pins the position-first rendering format.
func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Code: CodeMissingFence, Addr: 0x10008, Pos: "bar+1", Msg: "m"}
	want := "bar+1 (0x10008): missing-fence: m"
	if d.String() != want {
		t.Fatalf("String() = %q, want %q", d.String(), want)
	}
}

// TestUndefinedLabelError verifies the assembler satellite: branches to
// undefined labels fail Build with a wrapped, located error.
func TestUndefinedLabelError(t *testing.T) {
	b := asm.NewBuilder(core.TextBase, core.DataBase)
	b.Label("top")
	b.LI(isa.RegT0, 1)
	b.BEQZ(isa.RegT0, "nowhere")
	_, err := b.Build()
	if err == nil {
		t.Fatal("want error for undefined label")
	}
	if !errors.Is(err, asm.ErrUndefinedLabel) {
		t.Fatalf("error %v does not wrap ErrUndefinedLabel", err)
	}
	if !strings.Contains(err.Error(), "top+1") {
		t.Fatalf("error %v lacks build-site position top+1", err)
	}
}

// TestLocate verifies label+offset attribution over the recorded marks.
func TestLocate(t *testing.T) {
	b := asm.NewBuilder(core.TextBase, core.DataBase)
	b.Label("a")
	b.NOP()
	b.NOP()
	b.Label("b")
	b.NOP()
	b.HALT()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		addr uint64
		want string
	}{
		{core.TextBase, "a"},
		{core.TextBase + 8, "a+1"},
		{core.TextBase + 16, "b"},
		{core.TextBase + 24, "b+1"},
	}
	for _, c := range cases {
		if got := p.Locate(c.addr); got != c.want {
			t.Errorf("Locate(%#x) = %q, want %q", c.addr, got, c.want)
		}
	}
	if got := p.Locate(core.TextBase - 8); !strings.HasPrefix(got, "0x") {
		t.Errorf("Locate before first mark = %q, want raw address", got)
	}
}

// TestLockReduceSmallBlocks: lockreduce with one or two elements per
// thread vets clean under every mechanism. With one element, the software
// barriers' counter loads must not read as filter stalls (the lock's dcbi
// is not a filter region); with two, the element loop's dead fall-through
// edge must not cost the critical section its lock credit.
func TestLockReduceSmallBlocks(t *testing.T) {
	for _, threads := range []int{3, 8, 32} {
		for _, n := range []int{threads, 2 * threads} {
			k := kernels.NewLockReduce(n, 2)
			for _, kind := range allKinds {
				prog, ok := buildPar(k, kind, threads)
				if !ok {
					continue
				}
				if ds := Check(prog, Options{Threads: threads}); len(ds) != 0 {
					t.Errorf("lockreduce n=%d threads=%d %s: %v", n, threads, kind, ds)
				}
			}
		}
	}
}
