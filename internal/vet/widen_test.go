package vet

import (
	"fmt"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/isa"
)

// buildNest emits an adversarial loop nest: depth nested loops, each with a
// data-dependent bound loaded from memory, each level incrementing several
// registers by different strides so every join site keeps discovering new
// interval endpoints until widening stops it.
func buildNest(t *testing.T, depth int) *asm.Program {
	t.Helper()
	b := asm.NewBuilder(core.TextBase, core.DataBase)
	b.Label("kern")
	b.LI(isa.RegT0, core.DataBase+0x4000)
	b.LD(cT1, isa.RegT0, 0) // shared data-dependent bound
	// One counter and one strided accumulator per level.
	for d := 0; d < depth; d++ {
		b.LI(uint8(cT2+2*d), 0)
		b.LI(uint8(cT2+2*d+1), 0)
	}
	for d := 0; d < depth; d++ {
		b.Label(fmt.Sprintf("l%d", d))
		ctr, acc := uint8(cT2+2*d), uint8(cT2+2*d+1)
		b.ADDI(ctr, ctr, 1)
		b.ADDI(acc, acc, int32(8*(d+1)))
		b.XORI(acc, acc, 1)
	}
	for d := depth - 1; d >= 0; d-- {
		ctr := uint8(cT2 + 2*d)
		b.BLT(ctr, cT1, fmt.Sprintf("l%d", d))
		b.LI(ctr, 0) // reset for the enclosing level's next iteration
	}
	b.HALT()
	prog, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return prog
}

// TestWideningConvergence asserts the documented fixpoint bound on
// adversarial nests: the number of accepted state changes never exceeds
// maxStateChanges per block head, at any nest depth and thread count.
func TestWideningConvergence(t *testing.T) {
	for _, depth := range []int{1, 2, 4, 6} {
		for _, threads := range []int{1, 8} {
			prog := buildNest(t, depth)
			rep, u := analyzeUnit(prog, Options{Threads: threads})
			if u == nil {
				t.Fatalf("depth %d: no unit", depth)
			}
			bound := len(u.blocks) * maxStateChanges
			if u.stats.seeds > bound {
				t.Errorf("depth %d threads %d: %d state changes exceeds bound %d (%d heads × %d)",
					depth, threads, u.stats.seeds, bound, len(u.blocks), maxStateChanges)
			}
			for _, d := range rep.Diags {
				t.Errorf("depth %d: unexpected diagnostic: %s", depth, d)
			}
		}
	}
}

// TestWideningDelayExactLoops checks that short constant loops converge
// without widening at all: a 3-iteration countdown stays exact, so a
// degenerate widen-to-Top would be visible as widen operations.
func TestWideningDelayExactLoops(t *testing.T) {
	b := asm.NewBuilder(core.TextBase, core.DataBase)
	b.Label("kern")
	b.LI(isa.RegT0, 2)
	b.Label("loop")
	b.ADDI(isa.RegT0, isa.RegT0, -1)
	b.BNEZ(isa.RegT0, "loop")
	b.HALT()
	prog, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	rep, u := analyzeUnit(prog, Options{Threads: 4})
	if len(rep.Diags) != 0 {
		t.Fatalf("unexpected diagnostics: %v", rep.Diags)
	}
	if u.stats.seeds == 0 {
		t.Fatalf("fixpoint did no work")
	}
}

// TestNarrowingCertifiesBoundedPartitions is the positive interval-domain
// test: a stride-64 partition whose in-partition offset is a masked
// data-dependent value spanning at most 56 bytes. The v1 affine domain
// bails to Top at the mask; the interval domain must (a) stay silent and
// (b) positively certify the phase — which requires the ANDI mask rule,
// the loop-head widening, and the branch narrowing to all work together.
func TestNarrowingCertifiesBoundedPartitions(t *testing.T) {
	build := func() *asm.Program {
		b := asm.NewBuilder(core.TextBase, core.DataBase)
		b.DataLabel("len")
		b.Quad(3)
		b.Label("kern")
		b.LA(isa.RegT0, "len")
		b.LD(cT1, isa.RegT0, 0)
		b.ANDI(cT1, cT1, 48)
		b.ADDI(cT1, cT1, 8) // span in [8,56] ≤ stride 64
		b.LI(cT2, 64)
		b.MUL(cT2, cT2, isa.RegA0)
		b.LI(cT3, core.DataBase+0x200)
		b.ADD(cT2, cT2, cT3) // partition base: 0x200 + 64·tid
		b.ADD(cT3, cT2, cT1) // partition end
		b.Label("loop")
		b.ST(isa.RegA0, cT2, 0)
		b.ADDI(cT2, cT2, 8)
		b.BLT(cT2, cT3, "loop")
		b.HALT()
		prog, err := b.Build()
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		return prog
	}
	rep := Analyze(build(), Options{Threads: 8})
	for _, d := range rep.Diags {
		t.Errorf("unexpected diagnostic: %s", d)
	}
	if len(rep.Phases) == 0 {
		t.Fatalf("no phases reported")
	}
	for _, p := range rep.Phases {
		if !p.Certified {
			t.Errorf("phase %d not certified: %s", p.ID, p.Reason)
		}
		if p.ID == 0 && p.Stores == 0 {
			t.Errorf("phase 0 recorded no stores; the certificate is vacuous")
		}
	}
	// The same program under the affine-only baseline must still be silent
	// (must-checks never fire on Top) but cannot certify the store.
	repAff := Analyze(build(), Options{Threads: 8, AffineOnly: true})
	for _, d := range repAff.Diags {
		t.Errorf("affine-only: unexpected diagnostic: %s", d)
	}
	certified := true
	for _, p := range repAff.Phases {
		certified = certified && p.Certified
	}
	if certified {
		t.Errorf("affine-only domain certified a data-dependent partition it cannot bound")
	}
}

// TestPhaseSlicing checks the phase map on a two-phase D-filter program:
// the stores before and after the barrier stall land in different phases,
// and a single-barrier loop collapses back to one phase via its back edge.
func TestPhaseSlicing(t *testing.T) {
	b := asm.NewBuilder(core.TextBase, core.DataBase)
	dSetup(b)
	b.SLLI(isa.RegT0, isa.RegA0, 3)
	b.LI(cT1, core.DataBase)
	b.ADD(isa.RegT0, isa.RegT0, cT1)
	b.Label("pre")
	b.ST(isa.RegA0, isa.RegT0, 0)
	dBarrier(b)
	b.Label("post")
	b.ST(isa.RegA0, isa.RegT0, 0)
	b.HALT()
	prog, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	_, u := analyzeUnit(prog, Options{Threads: 4})
	pre, ok1 := prog.Symbol("pre")
	post, ok2 := prog.Symbol("post")
	if !ok1 || !ok2 {
		t.Fatalf("labels missing")
	}
	pi, _ := u.idxOf(pre)
	qi, _ := u.idxOf(post)
	if u.phase[pi] < 0 || u.phase[qi] < 0 {
		t.Fatalf("stores unassigned: pre=%d post=%d", u.phase[pi], u.phase[qi])
	}
	if u.phase[pi] == u.phase[qi] {
		t.Errorf("stores across a barrier share phase %d; the barrier should split them", u.phase[pi])
	}
}
