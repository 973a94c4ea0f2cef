package cpu

import (
	"repro/internal/isa"
	"repro/internal/mem"
)

// Basic-block translation cache.
//
// The fetch stage never crosses an I-cache line in one group, so the natural
// translation unit is one line of text: on first fetch into a line the whole
// line is decoded once into pre-bound isa.Decoded records, and every later
// fetch from it is an array index instead of a Decode + Lookup + operand
// binding per word.
//
// One rule keeps the cache coherent: the memory write hook (OnMemWrite)
// invalidates every block a functional write overlaps, before the bytes
// change, and nothing else invalidates a block. The flat memory
// (mem.Memory) is the single functional home of all bytes, so a cached
// record is behaviour-equivalent exactly as long as it equals
// Predecode(Mem.ReadUint64(pc)), which only a write can change. ICBI and
// IFLUSH never change the text: they keep their whole timing effect (the
// L1I invalidation the bank's filter counts, the flush and refetch) and
// leave this cache alone. Translation replaces only decode/dispatch work,
// so cycles and stats are bit-identical with the translator on or off
// (pinned by the NoTranslate knob of the root TestDifferential and by
// FuzzTranslateDiff).
//
// Published records are immutable: the fetch buffer holds pointers into a
// block's recs, and an instruction fetched before a store rewrote its word
// must keep the record it was fetched with, as the untranslated frontend's
// copy would. A retranslation follows only a write to the line's text, so
// it always publishes a fresh array.

// transBlock is one translated line of text.
type transBlock struct {
	base  uint64 // line-aligned text address
	valid bool
	recs  []isa.Decoded // one per word in the line; never written once published
}

// TransCache is the machine-shared translation cache. All cores (and all
// hardware thread contexts) share it, mirroring the fact that they fetch
// from the same physical memory: a store to text by one core invalidates
// the block for every core, which the cross-core invalidation tests pin.
//
// The three counters are driven purely by the simulated fetch and store
// sequence, so they are deterministic across runs and identical with
// the quiescent-core fast path on or off (Skip credits a sleeper's period
// its lookups as hits, which they all are).
type TransCache struct {
	mem       *mem.Memory
	lineBytes uint64
	lineMask  uint64
	words     int // instructions per line

	blocks map[uint64]*transBlock

	// [lo, hi) bounds every address ever translated. Functional writes —
	// overwhelmingly data-segment stores — are filtered against it with
	// two compares before any map work.
	lo, hi uint64

	// Hits counts block lookups that found a valid translation (one per
	// line transition; the per-core block pointer fast path does not
	// count). Misses counts lines translated, including retranslation
	// after invalidation. Invalidations counts valid blocks killed by a
	// write.
	Hits, Misses, Invalidations uint64
}

// NewTransCache builds a translation cache over m with the machine's
// I-cache line size.
func NewTransCache(m *mem.Memory, lineBytes int) *TransCache {
	return &TransCache{
		mem:       m,
		lineBytes: uint64(lineBytes),
		lineMask:  uint64(lineBytes - 1),
		words:     lineBytes / isa.WordBytes,
		blocks:    make(map[uint64]*transBlock),
		lo:        ^uint64(0), // empty: no address is covered
	}
}

// Block returns the translated block for the line-aligned address base,
// translating it from memory if absent, or retranslating it into a fresh
// array if a write invalidated it.
func (t *TransCache) Block(base uint64) *transBlock {
	b := t.blocks[base]
	if b != nil && b.valid {
		t.Hits++
		return b
	}
	t.Misses++
	if b == nil {
		b = &transBlock{base: base}
		t.blocks[base] = b
		t.lo, t.hi = min(t.lo, base), max(t.hi, base+t.lineBytes)
	}
	b.recs = make([]isa.Decoded, t.words)
	for i := range b.recs {
		b.recs[i] = isa.Predecode(t.mem.ReadUint64(base + uint64(i)*isa.WordBytes))
	}
	b.valid = true
	return b
}

// Covers reports whether [addr, addr+n) may overlap a translated line.
func (t *TransCache) Covers(addr uint64, n int) bool {
	return n > 0 && addr < t.hi && addr+uint64(n) > t.lo
}

// OnMemWrite is the memory write hook: it invalidates every translated
// block overlapping the written range before the bytes change.
func (t *TransCache) OnMemWrite(addr uint64, n int) {
	if !t.Covers(addr, n) {
		return
	}
	last := (addr + uint64(n) - 1) &^ t.lineMask
	for la := addr &^ t.lineMask; ; la += t.lineBytes {
		if b := t.blocks[la]; b != nil && b.valid {
			b.valid = false
			t.Invalidations++
		}
		if la >= last {
			break
		}
	}
}

// AttachTranslator points the core's frontend at the shared translation
// cache (nil detaches, restoring per-fetch decoding — the -notranslate
// escape hatch).
func (c *Core) AttachTranslator(t *TransCache) {
	c.trans = t
	c.curBlock = nil
}
