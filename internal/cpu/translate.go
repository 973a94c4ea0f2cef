package cpu

import (
	"slices"

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
// Published records are immutable. The fetch buffer holds pointers into a
// block's recs, so an instruction fetched before a store rewrote its word
// must keep the record it was fetched with, as the untranslated frontend's
// copy would. Retranslation therefore never writes a published array: when
// any word changed, the block gets a fresh array; when every word decodes to
// the record it already has (an ICBI, or a store that left the text as it
// was) the block keeps its array and allocates nothing. The second case is
// every retranslation the benchmark's workloads make — I-cache filter
// barriers ICBI and then fetch their arrival lines every episode — and a
// fresh array for each would add about 8 % to parked64's allocation per
// cell.
//
// Cycle-exactness argument: the flat memory (mem.Memory) is the single
// functional home of all bytes, and the untranslated frontend reads it anew
// on every fetch. A cached record is therefore behaviour-equivalent exactly
// as long as it equals Predecode(Mem.ReadUint64(pc)) — a pure function of
// the bytes — and the cache keeps that true by observing every functional
// write through the memory write hook and marking overlapped blocks invalid
// before the write lands. Translation replaces only decode/dispatch work;
// I-cache presence checks, miss timing, and everything downstream of the
// fetch buffer are untouched, so cycles and stats are bit-identical with the
// translator on or off (pinned by the NoTranslate knob of the root
// TestDifferential and by FuzzTranslateDiff).
//
// ICBI and IFLUSH additionally invalidate at the times real hardware would
// (InvalidateLine from the store-buffer drain, and the per-core block
// pointer drop at IFLUSH commit). With the write hook already keeping
// records coherent these are redundant for correctness, but they keep the
// counters honest for the self-modifying-code sequences srvet verifies.
// Because the write hook is the one that matters, a block also records
// whether a write overlapped it since its last translation: one an ICBI
// alone invalidated still holds exactly Predecode of every word, so Block
// revalidates it without decoding, counting the miss all the same. The
// I-cache filter barriers ICBI and refetch their arrival lines every
// episode, and no write ever touches those lines.

// transBlock is one translated line of text.
type transBlock struct {
	base    uint64 // line-aligned text address
	valid   bool
	written bool          // a functional write overlapped the line since recs were decoded
	recs    []isa.Decoded // one per word in the line; never written once published
}

// TransCache is the machine-shared translation cache. All cores (and all
// hardware thread contexts) share it, mirroring the fact that they fetch
// from the same physical memory: a store or ICBI by one core invalidates
// the block for every core, which the cross-core invalidation tests pin.
//
// The three counters are driven purely by the simulated fetch, store and
// ICBI sequence, so they are deterministic across runs and identical with
// the quiescent-core fast path on or off (a quiescent core's fetch is
// stalled before it reaches the translator).
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
	// store or ICBI.
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
	}
}

// Block returns the translated block for the line-aligned address base,
// translating (or retranslating) it from memory if absent or invalid.
func (t *TransCache) Block(base uint64) *transBlock {
	b := t.blocks[base]
	if b != nil && b.valid {
		t.Hits++
		return b
	}
	t.Misses++
	if b != nil && !b.written {
		b.valid = true // only an ICBI invalidated it: recs still match memory
		return b
	}
	fresh := b == nil // recs not yet published
	if b == nil {
		b = &transBlock{base: base, recs: make([]isa.Decoded, t.words)}
		t.blocks[base] = b
		if len(t.blocks) == 1 {
			t.lo, t.hi = base, base+t.lineBytes
		} else {
			if base < t.lo {
				t.lo = base
			}
			if base+t.lineBytes > t.hi {
				t.hi = base + t.lineBytes
			}
		}
	}
	for i := range b.recs {
		d := isa.Predecode(t.mem.ReadUint64(base + uint64(i)*isa.WordBytes))
		if d == b.recs[i] {
			continue
		}
		if !fresh {
			b.recs = slices.Clone(b.recs)
			fresh = true
		}
		b.recs[i] = d
	}
	b.valid, b.written = true, false
	return b
}

// InvalidateLine kills the block covering addr, if translated and valid.
// The store-buffer drain calls it when an ICBI is issued to the bus.
func (t *TransCache) InvalidateLine(addr uint64) {
	if b := t.blocks[addr&^t.lineMask]; b != nil {
		t.invalidate(b)
	}
}

func (t *TransCache) invalidate(b *transBlock) {
	if b.valid {
		b.valid = false
		t.Invalidations++
	}
}

// Covers reports whether [addr, addr+n) may overlap a translated line.
func (t *TransCache) Covers(addr uint64, n int) bool {
	return n > 0 && len(t.blocks) > 0 && addr < t.hi && addr+uint64(n) > t.lo
}

// OnMemWrite is the memory write hook: it invalidates every translated
// block overlapping the written range before the bytes change.
func (t *TransCache) OnMemWrite(addr uint64, n int) {
	if !t.Covers(addr, n) {
		return
	}
	last := (addr + uint64(n) - 1) &^ t.lineMask
	for la := addr &^ t.lineMask; ; la += t.lineBytes {
		if b := t.blocks[la]; b != nil {
			b.written = true
			t.invalidate(b)
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
