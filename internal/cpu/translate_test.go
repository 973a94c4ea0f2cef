// Tests for the basic-block translation cache (translate.go): counter
// semantics, invalidation edge cases (store-to-text, cross-core ICBI, jumps
// into untranslated memory), and rig-level on/off differentials. The
// machine-level wiring and the full kernel matrix differential live in
// package core and the repo root (the NoTranslate knob of TestDifferential);
// these tests pin the cache's contract at the core level, where invalidation
// ordering is easiest to drive cycle by cycle.
package cpu

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/mem"
)

// attachTranslator wires a machine-shared translation cache into the rig the
// same way core.NewMachine does: one TransCache over the flat memory, the
// write hook installed, every core attached.
func attachTranslator(r *testRig) *TransCache {
	tc := NewTransCache(r.sys.Mem, r.sys.Cfg.LineBytes)
	r.sys.Mem.SetWriteHook(tc.OnMemWrite)
	for _, c := range r.cores {
		c.AttachTranslator(tc)
	}
	return tc
}

// runTranslated assembles src, runs it on a single core with or without the
// translator, and returns the rig (faults left for the caller to inspect)
// plus the cache (nil when translate is false).
func runTranslated(t *testing.T, src string, translate bool) (*testRig, *TransCache) {
	t.Helper()
	p := asm.MustAssemble(src, textBase, 0x100000)
	r := newRig(t, 1, p)
	var tc *TransCache
	if translate {
		tc = attachTranslator(r)
	}
	r.start(0, 0, 1, p.Entry)
	r.run(t, 1_000_000)
	return r, tc
}

func TestTranslateCacheCounters(t *testing.T) {
	sys := mem.NewSystem(mem.DefaultConfig(1))
	tc := NewTransCache(sys.Mem, sys.Cfg.LineBytes)
	sys.Mem.SetWriteHook(tc.OnMemWrite)
	lb := uint64(sys.Cfg.LineBytes)
	base := uint64(textBase)

	// Writes before anything is translated take the empty-cache early-out.
	nop := isa.Encode(isa.Inst{Op: isa.NOP})
	for i := uint64(0); i < 2*lb; i += isa.WordBytes {
		sys.Mem.WriteUint64(base+i, nop)
	}
	if tc.Hits != 0 || tc.Misses != 0 || tc.Invalidations != 0 {
		t.Fatalf("counters moved before any translation: %+v", *tc)
	}

	b := tc.Block(base)
	if tc.Misses != 1 || tc.Hits != 0 {
		t.Fatalf("first Block: hits=%d misses=%d", tc.Hits, tc.Misses)
	}
	if len(b.recs) != sys.Cfg.LineBytes/isa.WordBytes {
		t.Fatalf("block has %d records for a %d-byte line", len(b.recs), sys.Cfg.LineBytes)
	}
	for i, d := range b.recs {
		if d.In.Op != isa.NOP {
			t.Fatalf("rec %d decodes to %v, want NOP", i, d.In.Op)
		}
	}
	if tc.Block(base) != b || tc.Hits != 1 {
		t.Fatalf("second Block not a hit: hits=%d", tc.Hits)
	}
	tc.Block(base + lb)
	if tc.Misses != 2 {
		t.Fatalf("second line not a miss: misses=%d", tc.Misses)
	}

	// A data-segment store far outside the [lo, hi) watermark is filtered
	// without touching any block.
	sys.Mem.WriteUint64(0x100000, 123)
	if tc.Invalidations != 0 {
		t.Fatalf("out-of-watermark write invalidated a block")
	}

	// A store into a translated line kills it; the next Block retranslates
	// from the new bytes.
	patched := isa.Inst{Op: isa.LI, Rd: isa.RegT0, Imm: 5}
	sys.Mem.WriteUint64(base+isa.WordBytes, isa.Encode(patched))
	if tc.Invalidations != 1 {
		t.Fatalf("store to text: invalidations=%d, want 1", tc.Invalidations)
	}
	b = tc.Block(base)
	if tc.Misses != 3 {
		t.Fatalf("retranslation not a miss: misses=%d", tc.Misses)
	}
	if b.recs[1].In != patched {
		t.Fatalf("retranslated rec = %+v, want %+v", b.recs[1].In, patched)
	}

	// A multi-byte write straddling two translated lines invalidates both.
	sys.Mem.WriteBytes(base+lb-isa.WordBytes, make([]byte, 2*isa.WordBytes))
	if tc.Invalidations != 3 {
		t.Fatalf("straddling write: invalidations=%d, want 3", tc.Invalidations)
	}

	// An untranslated zeroed line decodes to BAD records (illegal
	// instruction at commit), exactly like the untranslated frontend.
	zb := tc.Block(base + 4*lb)
	for i, d := range zb.recs {
		if d.In.Op != isa.BAD {
			t.Fatalf("zeroed rec %d decodes to %v, want BAD", i, d.In.Op)
		}
	}
}

// smcProgram patches its own text: it overwrites the instruction at site with
// the encoding stashed in newinst, performs the architectural
// store-to-text / FENCE / ICBI / IFLUSH sequence, then falls into the patched
// site. With a correct translator the refetch decodes the new bytes; a stale
// block would print 7 instead.
func smcProgram() string {
	patched := isa.Encode(isa.Inst{Op: isa.LI, Rd: isa.RegA0, Imm: 99})
	return fmt.Sprintf(`
	la t0, site
	la t2, newinst
	ld t1, 0(t2)
	st t1, 0(t0)
	fence
	icbi 0(t0)
	iflush
site:
	li a0, 7
	out a0
	halt
.data
	.align 64
newinst:	.quad 0x%x
	`, patched)
}

func TestTranslateStoreToTextRefetch(t *testing.T) {
	r, tc := runTranslated(t, smcProgram(), true)
	if r.cores[0].Fault != nil {
		t.Fatalf("fault: %v", r.cores[0].Fault)
	}
	if got := r.cores[0].Console; len(got) != 1 || got[0] != 99 {
		t.Fatalf("patched site printed %v, want [99] — stale translation", got)
	}
	if tc.Invalidations == 0 {
		t.Fatal("store to text did not invalidate any translated block")
	}
	if tc.Misses == 0 || tc.Hits == 0 {
		t.Fatalf("translator unused: hits=%d misses=%d", tc.Hits, tc.Misses)
	}

	// Differential: the untranslated frontend must agree cycle for cycle.
	r2, _ := runTranslated(t, smcProgram(), false)
	if r2.cores[0].Fault != nil {
		t.Fatalf("untranslated fault: %v", r2.cores[0].Fault)
	}
	if r.now != r2.now {
		t.Fatalf("cycles diverged: translated %d, untranslated %d", r.now, r2.now)
	}
	if fmt.Sprint(r.cores[0].Console) != fmt.Sprint(r2.cores[0].Console) {
		t.Fatalf("console diverged: %v vs %v", r.cores[0].Console, r2.cores[0].Console)
	}
}

// crossCoreSrc has three entry points: main calls site and prints its result;
// patch rewrites site's first instruction and runs the ICBI/IFLUSH sequence.
func crossCoreSrc() string {
	patched := isa.Encode(isa.Inst{Op: isa.ADDI, Rd: isa.RegA0, Rs1: isa.RegZero, Imm: 99})
	return fmt.Sprintf(`
main:
	jal ra, site
	out a0
	halt
patch:
	la t0, site
	la t2, newinst
	ld t1, 0(t2)
	st t1, 0(t0)
	fence
	icbi 0(t0)
	iflush
	halt
site:
	addi a0, zero, 7
	ret
.data
	.align 64
newinst:	.quad 0x%x
	`, patched)
}

// TestTranslateCrossCoreICBI: a block translated while core 0 executes it
// must be invalidated by core 1's store+ICBI — the cache is machine-shared,
// like the physical text segment.
func TestTranslateCrossCoreICBI(t *testing.T) {
	p := asm.MustAssemble(crossCoreSrc(), textBase, 0x100000)
	r := newRig(t, 2, p)
	tc := attachTranslator(r)

	// Phase 1: core 0 runs the unpatched site and caches its line.
	r.start(0, 0, 1, p.MustSymbol("main"))
	r.run(t, 1_000_000)
	if f := r.cores[0].Fault; f != nil {
		t.Fatalf("phase 1 fault: %v", f)
	}
	if got := r.cores[0].Console; len(got) != 1 || got[0] != 7 {
		t.Fatalf("unpatched site printed %v, want [7]", got)
	}
	missesBefore, invBefore := tc.Misses, tc.Invalidations

	// Phase 2: core 1 — which never executed site — patches it.
	r.start(1, 1, 2, p.MustSymbol("patch"))
	r.run(t, 1_000_000)
	if f := r.cores[1].Fault; f != nil {
		t.Fatalf("phase 2 fault: %v", f)
	}
	if tc.Invalidations == invBefore {
		t.Fatal("core 1's store+ICBI left core 0's cached block valid")
	}

	// Phase 3: core 0 re-runs main and must see the patched encoding.
	r.start(0, 0, 1, p.MustSymbol("main"))
	r.run(t, 1_000_000)
	if f := r.cores[0].Fault; f != nil {
		t.Fatalf("phase 3 fault: %v", f)
	}
	if got := r.cores[0].Console; len(got) != 1 || got[0] != 99 {
		t.Fatalf("core 0 executed stale translation after cross-core ICBI: printed %v, want [99]", got)
	}
	if tc.Misses == missesBefore {
		t.Fatal("patched line was never retranslated")
	}
}

// TestTranslateJumpIntoZeroedMemory: jumping into memory no store or segment
// ever touched translates a line of BAD records, and the pipeline raises the
// same illegal-instruction fault at the same cycle as the untranslated
// frontend.
func TestTranslateJumpIntoZeroedMemory(t *testing.T) {
	src := `
	li t0, 0x50000
	jalr x0, 0(t0)
	`
	r, tc := runTranslated(t, src, true)
	if r.cores[0].Fault == nil || !strings.Contains(r.cores[0].Fault.Error(), "illegal") {
		t.Fatalf("fault = %v, want illegal instruction", r.cores[0].Fault)
	}
	if tc.Misses == 0 {
		t.Fatal("zeroed line was never translated")
	}
	r2, _ := runTranslated(t, src, false)
	if r2.cores[0].Fault == nil || r2.cores[0].Fault.Error() != r.cores[0].Fault.Error() {
		t.Fatalf("fault diverged: %v vs %v", r.cores[0].Fault, r2.cores[0].Fault)
	}
	if r.now != r2.now {
		t.Fatalf("cycles diverged: translated %d, untranslated %d", r.now, r2.now)
	}
}

// TestTranslateMisalignedFetchBypass: a JALR target that is not word-aligned
// bypasses the block cache (blocks are indexed in whole words). The
// misaligned word straddles two HALT encodings, decodes to BAD, and both
// frontends must fault identically rather than panic or diverge.
func TestTranslateMisalignedFetchBypass(t *testing.T) {
	src := `
	la t0, pad
	jalr x0, 4(t0)
pad:
	halt
	halt
	`
	r, _ := runTranslated(t, src, true)
	if r.cores[0].Fault == nil || !strings.Contains(r.cores[0].Fault.Error(), "illegal") {
		t.Fatalf("fault = %v, want illegal instruction", r.cores[0].Fault)
	}
	r2, _ := runTranslated(t, src, false)
	if r2.cores[0].Fault == nil || r2.cores[0].Fault.Error() != r.cores[0].Fault.Error() {
		t.Fatalf("fault diverged: %v vs %v", r.cores[0].Fault, r2.cores[0].Fault)
	}
	if r.now != r2.now {
		t.Fatalf("cycles diverged: translated %d, untranslated %d", r.now, r2.now)
	}
}

// TestTranslateLoopHitsCount: a loop spanning two lines transitions between
// blocks every iteration; each transition after the first pair is a map hit.
func TestTranslateLoopHitsCount(t *testing.T) {
	r, tc := runTranslated(t, `
	li t0, 100
	li t1, 0
loop:
	addi t1, t1, 1
	addi t1, t1, 0
	addi t1, t1, 0
	addi t1, t1, 0
	addi t1, t1, 0
	addi t1, t1, 0
	addi t0, t0, -1
	bnez t0, loop
	out t1
	halt
	`, true)
	if r.cores[0].Fault != nil {
		t.Fatalf("fault: %v", r.cores[0].Fault)
	}
	if got := r.cores[0].Console[0]; got != 100 {
		t.Fatalf("loop computed %d, want 100", got)
	}
	if tc.Hits < 100 {
		t.Fatalf("cross-line loop produced only %d hits", tc.Hits)
	}
	if tc.Invalidations != 0 {
		t.Fatalf("pure code loop invalidated %d blocks", tc.Invalidations)
	}
}

// icbiRefetch runs the I-cache filter barrier's arrival sequence on the line
// it runs from, twice: ICBI the line, IFLUSH, then jump back into it. The text
// never changes, so the line keeps its one translation.
const icbiRefetch = `
	li s1, 2
top:
	la t0, top
	icbi 0(t0)
	iflush
	addi s1, s1, -1
	bnez s1, top
	out s1
	halt
`

// TestTranslateCountersPinned pins the translate.* counters, which the root
// differential and the benchmark digests leave out, on five programs: how the
// frontend reaches a block (fetch pointer, lookup, retranslation) must not
// change what the counters report. With keep set, no block may publish a
// second record array.
func TestTranslateCountersPinned(t *testing.T) {
	straight := strings.Repeat("addi t1, t1, 1\n", 40) + "out t1\nhalt"
	loop := "li t0, 100\nli t1, 0\nloop:\n" + strings.Repeat("addi t1, t1, 1\n", 6) +
		"addi t0, t0, -1\nbnez t0, loop\nout t1\nhalt"
	cases := []struct {
		name                 string
		src                  string
		hits, misses, invals uint64
		keep                 bool
	}{
		{"straight-line-5-lines", straight, 0, 6, 0, false},
		{"loop-across-lines", loop, 204, 2, 0, false},
		{"smc-icbi-iflush", smcProgram(), 1, 3, 1, false},
		{"misaligned-jalr", "la t0, pad\njalr x0, 4(t0)\npad:\nhalt\nhalt", 0, 1, 0, false},
		{"icbi-refetch", icbiRefetch, 0, 1, 0, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := asm.MustAssemble(tc.src, textBase, 0x100000)
			r := newRig(t, 1, p)
			c := attachTranslator(r)
			core := r.cores[0]
			r.start(0, 0, 1, p.Entry)
			published := map[uint64]*isa.Decoded{}
			for ; core.Running() && r.now < 1_000_000; r.now++ {
				r.tick(core)
				r.sys.Tick(r.now)
				for base, b := range c.blocks {
					if first, ok := published[base]; !ok {
						published[base] = &b.recs[0]
					} else if tc.keep && first != &b.recs[0] {
						t.Fatalf("cycle %d: line %#x published a second record array", r.now, base)
					}
				}
			}
			if core.Running() {
				t.Fatal("still running at the cycle limit")
			}
			if c.Hits != tc.hits || c.Misses != tc.misses || c.Invalidations != tc.invals {
				t.Fatalf("hits/misses/invalidations %d/%d/%d, want %d/%d/%d",
					c.Hits, c.Misses, c.Invalidations, tc.hits, tc.misses, tc.invals)
			}
		})
	}
}

// inFlightRewriteSrc loops over a line that rewrites its own site word with a
// new instruction every pass. Once the loop runs warm, fetch runs ahead of
// the fence into the next pass, so copies of site read from the old bytes
// wait in the fetch buffer while the store lands; the refetch that follows
// retranslates the line before they dispatch. They must execute the
// instruction they were fetched as.
func inFlightRewriteSrc() string {
	src := `
	la t0, site
	la t2, newinst
	li s1, 6
top:
	ld t1, 0(t2)
	addi t2, t2, 8
	st t1, 0(t0)
	fence
site:
	li a0, 7
	out a0
	addi s1, s1, -1
	bnez s1, top
	halt
.data
	.align 64
newinst:
`
	for v := 90; v < 96; v++ {
		src += fmt.Sprintf("\t.quad 0x%x\n", isa.Encode(isa.Inst{Op: isa.LI, Rd: isa.RegA0, Imm: int32(v)}))
	}
	return src
}

// TestTranslateRecordsImmutable pins the invariant the zero-copy fetch buffer
// rests on: a published block array is never written (translate.go).
func TestTranslateRecordsImmutable(t *testing.T) {
	t.Run("in-flight-rewrite", func(t *testing.T) {
		p := asm.MustAssemble(inFlightRewriteSrc(), textBase, 0x100000)
		site := p.MustSymbol("site")
		run := func(translate bool) (*testRig, bool) {
			r := newRig(t, 1, p)
			var tc *TransCache
			if translate {
				tc = attachTranslator(r)
			}
			c := r.cores[0]
			r.start(0, 0, 1, p.Entry)
			stale := false // a fetched copy of site outlived its array
			for ; c.Running() && r.now < 1_000_000; r.now++ {
				r.tick(c)
				r.sys.Tick(r.now)
				if tc == nil {
					continue
				}
				b := tc.blocks[site&^tc.lineMask]
				for i := range c.fetchBuf.n {
					if f := c.fetchBuf.at(i); f.pc == site && f.d != &b.recs[(site-b.base)/isa.WordBytes] {
						stale = true
					}
				}
			}
			if c.Running() || c.Fault != nil {
				t.Fatalf("translate=%v: running=%v fault=%v", translate, c.Running(), c.Fault)
			}
			return r, stale
		}
		on, stale := run(true)
		off, _ := run(false)
		if fmt.Sprint(on.cores[0].Console) != fmt.Sprint(off.cores[0].Console) {
			t.Fatalf("console diverged: translated %v, untranslated %v", on.cores[0].Console, off.cores[0].Console)
		}
		if on.now != off.now || on.cores[0].Cycles != off.cores[0].Cycles {
			t.Fatalf("cycles diverged: translated %d/%d, untranslated %d/%d", on.now, on.cores[0].Cycles, off.now, off.cores[0].Cycles)
		}
		for i := 0; i < 64; i++ {
			if a, b := on.cores[0].Reg(i), off.cores[0].Reg(i); a != b {
				t.Fatalf("reg %d: translated %#x, untranslated %#x", i, a, b)
			}
		}
		if !stale {
			t.Fatal("no copy of site was waiting in the fetch buffer when its line was retranslated: the test misses its case")
		}
	})

	t.Run("changed-word-fresh-array", func(t *testing.T) {
		sys := mem.NewSystem(mem.DefaultConfig(1))
		tc := NewTransCache(sys.Mem, sys.Cfg.LineBytes)
		sys.Mem.SetWriteHook(tc.OnMemWrite)
		base := uint64(textBase)
		nop := isa.Encode(isa.Inst{Op: isa.NOP})
		for i := uint64(0); i < uint64(sys.Cfg.LineBytes); i += isa.WordBytes {
			sys.Mem.WriteUint64(base+i, nop)
		}
		b := tc.Block(base)
		old := b.recs
		patched := isa.Inst{Op: isa.LI, Rd: isa.RegT0, Imm: 5}
		sys.Mem.WriteUint64(base+isa.WordBytes, isa.Encode(patched))
		tc.Block(base)
		if &b.recs[0] == &old[0] {
			t.Fatal("a changed word was written into the published array")
		}
		if old[1].In.Op != isa.NOP || b.recs[1].In != patched {
			t.Fatalf("old array rec 1 = %v, new = %+v; want NOP and %+v", old[1].In.Op, b.recs[1].In, patched)
		}
		for i := range old {
			if i != 1 && b.recs[i] != old[i] {
				t.Fatalf("unchanged rec %d differs between the arrays", i)
			}
		}
	})
}
