package kernels

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/barrier"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/sim"
)

// Skewed is the dynamic-partition workload the widened verifier domain
// exists for: each thread sums a block of variable-length rows, where every
// row's length is a data-dependent value loaded and masked at run time
// (1..16 elements out of a 16-element row capacity). The per-thread work is
// therefore skewed — threads with long rows arrive at the barrier late —
// which is exactly the imbalanced shape the ROADMAP's work-stealing item
// needs, and none of its loop bounds are static: the affine v1 domain bails
// to Top on every one of them, while the interval domain bounds the row
// pointer (ANDI mask + narrowing), the row index (widening + back-edge
// narrowing), and the output partition (coef-per-tid interval) and
// certifies the phases.
//
// Each pass: row sums into out[r] (rows block-partitioned by thread),
// barrier, thread 0 reduces out[] into total, barrier. The second barrier
// is load-bearing: without it the next pass's out[] stores would race
// thread 0's reduction loads — a race both srvet (phase certificate) and
// hbcheck (vector clocks) exist to catch.
type Skewed struct {
	Rows   int // requested rows; padded to a multiple of nthreads at build
	Passes int
}

// rowCap is the fixed per-row capacity in quads (two cache lines).
const rowCap = 16

// NewSkewed builds the kernel.
func NewSkewed(rows, passes int) *Skewed {
	if rows < 1 {
		rows = 1
	}
	if passes < 1 {
		passes = 1
	}
	return &Skewed{Rows: rows, Passes: passes}
}

// Name implements Kernel.
func (k *Skewed) Name() string {
	return fmt.Sprintf("skewed[rows=%d,passes=%d]", k.Rows, k.Passes)
}

// padRows returns the padded row count for a thread count: every thread
// owns the same number of whole rows.
func (k *Skewed) padRows(threads int) int {
	if threads < 1 {
		threads = 1
	}
	c := (k.Rows + threads - 1) / threads
	return c * threads
}

// row returns row r's raw length word and element values, deterministic in
// r alone so seq/par builds and Verify agree for any padding.
func (k *Skewed) row(r int) (raw uint64, vals [rowCap]uint64) {
	rng := sim.NewRand(uint64(0x5EED + r*1000003))
	raw = rng.Uint64()
	for i := range vals {
		vals[i] = rng.Uint64() % 1000
	}
	return raw, vals
}

// rowLen is the data-dependent length the generated code computes:
// (raw & 15) + 1, always in 1..rowCap.
func (k *Skewed) rowLen(r int) int {
	raw, _ := k.row(r)
	return int(raw&15) + 1
}

// rowSum is row r's reference sum over its first rowLen elements.
func (k *Skewed) rowSum(r int) uint64 {
	_, vals := k.row(r)
	var s uint64
	for i := 0; i < k.rowLen(r); i++ {
		s += vals[i]
	}
	return s
}

func (k *Skewed) emitData(b *asm.Builder, threads int) {
	n := k.padRows(threads)
	dataLabel(b, "rows")
	for r := 0; r < n; r++ {
		_, vals := k.row(r)
		b.Quad(vals[:]...)
	}
	dataLabel(b, "lens")
	for r := 0; r < n; r++ {
		raw, _ := k.row(r)
		b.Quad(raw)
	}
	dataLabel(b, "out")
	b.Space(n * 8)
	dataLabel(b, "total")
	b.Space(64)
}

// emit emits the kernel for the given thread count; gen is nil for the
// sequential build (barriers elided, and thread 0 owns every row).
func (k *Skewed) emit(b *asm.Builder, gen barrier.Generator, threads int) {
	const (
		t0 = isa.RegT0     // row pointer p
		t1 = isa.RegT0 + 1 // row end pointer
		t2 = isa.RegT0 + 2 // accumulator
		t3 = isa.RegT0 + 3 // scratch
		t4 = isa.RegT0 + 4 // scratch
		s0 = isa.RegS0     // pass counter
		s1 = isa.RegS0 + 1 // row index r
		s2 = isa.RegS0 + 2 // row index end
		s3 = isa.RegS0 + 3 // rows base
		s4 = isa.RegS0 + 4 // lens base
		s5 = isa.RegS0 + 5 // out base
	)
	n := k.padRows(threads)
	c := n / max(threads, 1) // rows per thread

	b.Label("kern")
	b.LA(s3, "rows")
	b.LA(s4, "lens")
	b.LA(s5, "out")
	emitLoop(b, s0, k.Passes, "pass", func() {
		// r = c*tid .. c*(tid+1): a whole-row block partition.
		b.LI(t4, int64(c))
		b.MUL(s1, t4, isa.RegA0)
		b.ADDI(s2, s1, int32(c))
		rows := b.NewLabel("rowloop")
		b.Label(rows)
		// p = rows + r*128; end = p + 8*((lens[r] & 15) + 1) — the data-
		// dependent bound the interval domain must mask, widen, and narrow.
		b.SLLI(t0, s1, 7)
		b.ADD(t0, t0, s3)
		b.SLLI(t1, s1, 3)
		b.ADD(t1, t1, s4)
		b.LD(t1, t1, 0)
		b.ANDI(t1, t1, 15)
		b.ADDI(t1, t1, 1)
		b.SLLI(t1, t1, 3)
		b.ADD(t1, t1, t0)
		b.LI(t2, 0)
		elem := b.NewLabel("elem")
		b.Label(elem)
		b.LD(t3, t0, 0)
		b.ADD(t2, t2, t3)
		b.ADDI(t0, t0, 8)
		b.BLT(t0, t1, elem)
		// out[r] = row sum.
		b.SLLI(t3, s1, 3)
		b.ADD(t3, t3, s5)
		b.ST(t2, t3, 0)
		b.ADDI(s1, s1, 1)
		b.BLT(s1, s2, rows)
		emitBarrier(b, gen)
		// Thread 0 reduces every row sum into total.
		skip := b.NewLabel("skip")
		b.BNEZ(isa.RegA0, skip)
		b.LI(t2, 0)
		b.MV(t0, s5)
		b.LI(t1, int64(n*8))
		b.ADD(t1, t1, s5)
		red := b.NewLabel("red")
		b.Label(red)
		b.LD(t3, t0, 0)
		b.ADD(t2, t2, t3)
		b.ADDI(t0, t0, 8)
		b.BLT(t0, t1, red)
		b.LA(t3, "total")
		b.ST(t2, t3, 0)
		b.Label(skip)
		// Load-bearing: orders this pass's reduction loads before the
		// next pass's out[] stores.
		emitBarrier(b, gen)
	})
	k.emitData(b, threads)
}

// BuildSeq implements Kernel.
func (k *Skewed) BuildSeq() (*asm.Program, error) { return build(nil, 1, k.emit) }

// BuildPar implements Kernel.
func (k *Skewed) BuildPar(gen barrier.Generator, nthreads int) (*asm.Program, error) {
	return build(gen, nthreads, k.emit)
}

// Verify implements Kernel.
func (k *Skewed) Verify(m *mem.Memory, p *asm.Program, threads int) error {
	n := k.padRows(threads)
	out := p.MustSymbol("out")
	var total uint64
	for r := 0; r < n; r++ {
		want := k.rowSum(r)
		total += want
		if got := m.ReadUint64(out + uint64(r*8)); got != want {
			return fmt.Errorf("kernels: skewed out[%d] = %d, want %d", r, got, want)
		}
	}
	if got := m.ReadUint64(p.MustSymbol("total")); got != total {
		return fmt.Errorf("kernels: skewed total = %d, want %d", got, total)
	}
	return nil
}
