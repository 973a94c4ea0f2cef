package kernels

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/barrier"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/sim"
)

// Livermore3 is Livermore loop kernel 3, a simple inner product:
//
//	q = 0; for (k = 0; k < n; k++) q += z[k] * x[k];
//
// The parallel version follows §4.4 of the paper: each thread accumulates a
// partial sum over a chunk of at least 8 doubles (one cache line), a
// barrier separates the accumulation from the reduction, and thread 0 sums
// the partials; a second barrier closes the episode. The kernel is repeated
// Loops times (the standard Livermore harness repeats kernels).
type Livermore3 struct {
	N     int
	Loops int

	x, z []float64
}

// NewLivermore3 builds the kernel with deterministic synthetic operands.
func NewLivermore3(n, loops int) *Livermore3 {
	r := sim.NewRand(0x33 + uint64(n))
	k := &Livermore3{N: n, Loops: loops}
	for i := 0; i < n; i++ {
		k.x = append(k.x, r.Float64()*2-1)
		k.z = append(k.z, r.Float64()*2-1)
	}
	return k
}

// Name implements Kernel.
func (k *Livermore3) Name() string { return fmt.Sprintf("livermore3[N=%d]", k.N) }

// refSeq is the plain-order inner product.
func (k *Livermore3) refSeq() float64 {
	q := 0.0
	for i := 0; i < k.N; i++ {
		q += k.z[i] * k.x[i]
	}
	return q
}

// refPar replicates the parallel accumulation order exactly: per-chunk
// partials summed in thread order.
func (k *Livermore3) refPar(threads int) float64 {
	q := 0.0
	for t := 0; t < threads; t++ {
		lo, hi := ChunkRange(k.N, threads, 8, t)
		p := 0.0
		for i := lo; i < hi; i++ {
			p += k.z[i] * k.x[i]
		}
		q += p
	}
	return q
}

func (k *Livermore3) emitData(b *asm.Builder, threads int) {
	dataLabel(b, "x")
	b.Double(k.x...)
	dataLabel(b, "z")
	b.Double(k.z...)
	dataLabel(b, "result")
	b.Quad(0)
	if threads > 0 {
		dataLabel(b, "partials")
		b.Space(threads * 64) // one line per thread
	}
}

// emitDot emits an inner-product loop over [xPtr, xPtr+8*cnt) accumulating
// into f0. Clobbers t0..t2 and f1..f3. cnt (t2) must be > 0 on entry or the
// caller must branch around.
func emitDot(b *asm.Builder, label string) {
	const (
		t0 = isa.RegT0
		t1 = isa.RegT0 + 1
		t2 = isa.RegT0 + 2
	)
	loop := b.NewLabel(label)
	b.Label(loop)
	b.FLD(1, t0, 0)
	b.FLD(2, t1, 0)
	b.FMUL(3, 1, 2)
	b.FADD(0, 0, 3)
	b.ADDI(t0, t0, 8)
	b.ADDI(t1, t1, 8)
	b.ADDI(t2, t2, -1)
	b.BNEZ(t2, loop)
}

// BuildSeq implements Kernel. It is not BuildPar without the barriers: the
// sequential pass accumulates straight into the result, with no partial
// slot and no reduction, in the plain summation order refSeq checks.
func (k *Livermore3) BuildSeq() (*asm.Program, error) {
	return buildSeq(func(b *asm.Builder) {
		const (
			t0 = isa.RegT0
			t1 = isa.RegT0 + 1
			t2 = isa.RegT0 + 2
			s0 = isa.RegS0
			t3 = isa.RegT0 + 3
		)
		emitLoop(b, s0, k.Loops, "louter", func() {
			b.LA(t0, "x")
			b.LA(t1, "z")
			b.LI(t2, int64(k.N))
			b.ITOF(0, isa.RegZero) // f0 = 0.0
			emitDot(b, "ldot")
			b.LA(t3, "result")
			b.FST(0, t3, 0)
		})
		k.emitData(b, 0)
	})
}

// BuildPar implements Kernel.
func (k *Livermore3) BuildPar(gen barrier.Generator, nthreads int) (*asm.Program, error) {
	chunk := Chunk(k.N, nthreads, 8)
	return barrier.BuildProgram(gen, func(b *asm.Builder) {
		const (
			t0 = isa.RegT0
			t1 = isa.RegT0 + 1
			t2 = isa.RegT0 + 2
			t3 = isa.RegT0 + 3
			s0 = isa.RegS0     // loops remaining
			s1 = isa.RegS0 + 1 // my x pointer
			s2 = isa.RegS0 + 2 // my z pointer
			s3 = isa.RegS0 + 3 // my element count
			s4 = isa.RegS0 + 4 // my partial slot
			s5 = isa.RegS0 + 5 // partials base
		)
		emitRange(b, t0, t2, t1, chunk, k.N)
		b.SUB(s3, t2, t0) // cnt
		b.SLLI(t0, t0, 3) // lo bytes
		b.LA(s1, "x")
		b.ADD(s1, s1, t0)
		b.LA(s2, "z")
		b.ADD(s2, s2, t0)
		b.LA(s5, "partials")
		b.SLLI(t3, isa.RegA0, 6)
		b.ADD(s4, s5, t3)

		emitLoop(b, s0, k.Loops, "louter", func() {
			b.ITOF(0, isa.RegZero)
			skip := b.NewLabel("lskip")
			b.BEQZ(s3, skip)
			b.MV(t0, s1)
			b.MV(t1, s2)
			b.MV(t2, s3)
			emitDot(b, "ldot")
			b.Label(skip)
			b.FST(0, s4, 0)
			gen.EmitBarrier(b)
			emitReduce(b, "l", s5, nthreads, func() {
				b.ITOF(0, isa.RegZero)
			}, func() {
				b.FLD(1, t0, 0)
				b.FADD(0, 0, 1)
			}, func() {
				b.LA(t2, "result")
				b.FST(0, t2, 0)
			})
			gen.EmitBarrier(b)
		})
		k.emitData(b, nthreads)
	})
}

// Verify implements Kernel.
func (k *Livermore3) Verify(m *mem.Memory, p *asm.Program, threads int) error {
	want := k.refSeq()
	if threads > 1 {
		want = k.refPar(threads)
	}
	return verifyF64(m, p.MustSymbol("result"), []float64{want}, "result")
}
