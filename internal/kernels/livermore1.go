package kernels

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/barrier"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/sim"
)

// Livermore1 is Livermore loop kernel 1, the hydro fragment:
//
//	for (k = 0; k < n; k++)
//	    x[k] = q + y[k] * (r*z[k+10] + t*z[k+11]);
//
// The paper excludes it from the barrier study precisely because it is
// embarrassingly parallel (§4.4): the parallel version needs only a single
// closing barrier per pass, so every barrier mechanism performs the same.
// It is included here as that control case (see the kernels tests), and as
// a fourth workload for the examples.
type Livermore1 struct {
	N     int
	Loops int

	q, r, t float64
	y, z    []float64
}

// NewLivermore1 builds the kernel with deterministic synthetic operands.
func NewLivermore1(n, loops int) *Livermore1 {
	rng := sim.NewRand(0x11 + uint64(n))
	k := &Livermore1{N: n, Loops: loops, q: 0.5, r: 0.25, t: 0.125}
	for i := 0; i < n+11; i++ {
		k.y = append(k.y, rng.Float64()*2-1)
		k.z = append(k.z, rng.Float64()*2-1)
	}
	return k
}

// Name implements Kernel.
func (k *Livermore1) Name() string { return fmt.Sprintf("livermore1[N=%d]", k.N) }

// reference computes x (idempotent across passes: x is output-only).
func (k *Livermore1) reference() []float64 {
	x := make([]float64, k.N)
	for i := 0; i < k.N; i++ {
		x[i] = k.q + k.y[i]*(k.r*k.z[i+10]+k.t*k.z[i+11])
	}
	return x
}

func (k *Livermore1) emitData(b *asm.Builder) {
	dataLabel(b, "consts")
	b.Double(k.q, k.r, k.t)
	dataLabel(b, "y")
	b.Double(k.y...)
	dataLabel(b, "z")
	b.Double(k.z...)
	dataLabel(b, "x")
	b.Space(k.N * 8)
}

// emitBody computes x[k] for cnt (t2) elements starting at element offsets
// prepared in t0 (=&y[k]), t1 (=&z[k+10]), t3 (=&x[k]). f5=q, f6=r, f7=t.
func (k *Livermore1) emitBody(b *asm.Builder, label string) {
	const (
		t0 = isa.RegT0
		t1 = isa.RegT0 + 1
		t2 = isa.RegT0 + 2
		t3 = isa.RegT0 + 3
	)
	loop := b.NewLabel(label)
	b.Label(loop)
	b.FLD(0, t1, 0) // z[k+10]
	b.FLD(1, t1, 8) // z[k+11]
	b.FMUL(0, 0, 6) // r*z[k+10]
	b.FMUL(1, 1, 7) // t*z[k+11]
	b.FADD(0, 0, 1)
	b.FLD(2, t0, 0) // y[k]
	b.FMUL(0, 0, 2)
	b.FADD(0, 0, 5) // + q
	b.FST(0, t3, 0)
	b.ADDI(t0, t0, 8)
	b.ADDI(t1, t1, 8)
	b.ADDI(t3, t3, 8)
	b.ADDI(t2, t2, -1)
	b.BNEZ(t2, loop)
}

func (k *Livermore1) emitConsts(b *asm.Builder) {
	const t4 = isa.RegT0 + 4
	b.LA(t4, "consts")
	b.FLD(5, t4, 0)
	b.FLD(6, t4, 8)
	b.FLD(7, t4, 16)
}

// BuildSeq implements Kernel. It is not BuildPar without the barrier: the
// sequential pass takes its pointers straight from the symbols, where the
// parallel one offsets them by its partition and skips an empty one, so
// the two are different instruction streams (both pinned by the kernel
// text golden).
func (k *Livermore1) BuildSeq() (*asm.Program, error) {
	return buildSeq(func(b *asm.Builder) {
		const (
			t0 = isa.RegT0
			t1 = isa.RegT0 + 1
			t2 = isa.RegT0 + 2
			t3 = isa.RegT0 + 3
			s0 = isa.RegS0
		)
		k.emitConsts(b)
		emitLoop(b, s0, k.Loops, "pass", func() {
			b.LA(t0, "y")
			b.LA(t1, "z")
			b.ADDI(t1, t1, 80) // &z[10]
			b.LA(t3, "x")
			b.LI(t2, int64(k.N))
			k.emitBody(b, "body")
		})
		k.emitData(b)
	})
}

// BuildPar implements Kernel: chunked with a single barrier per pass.
func (k *Livermore1) BuildPar(gen barrier.Generator, nthreads int) (*asm.Program, error) {
	chunk := Chunk(k.N, nthreads, 8)
	return barrier.BuildProgram(gen, func(b *asm.Builder) {
		const (
			t0 = isa.RegT0
			t1 = isa.RegT0 + 1
			t2 = isa.RegT0 + 2
			t3 = isa.RegT0 + 3
			s0 = isa.RegS0
			s1 = isa.RegS0 + 1 // my lo (elements)
			s2 = isa.RegS0 + 2 // my count
		)
		k.emitConsts(b)
		emitRange(b, s1, s2, t0, chunk, k.N)
		b.SUB(s2, s2, s1)
		emitLoop(b, s0, k.Loops, "pass", func() {
			skip := b.NewLabel("skip")
			b.BEQZ(s2, skip)
			b.SLLI(t0, s1, 3)
			b.LA(t1, "y")
			b.ADD(t0, t1, t0) // reuse t0 as &y[lo]
			b.SLLI(t1, s1, 3)
			b.LA(t3, "z")
			b.ADD(t1, t3, t1)
			b.ADDI(t1, t1, 80) // &z[lo+10]
			b.SLLI(t3, s1, 3)
			b.LA(t2, "x")
			b.ADD(t3, t2, t3) // &x[lo]
			b.MV(t2, s2)
			k.emitBody(b, "body")
			b.Label(skip)
			gen.EmitBarrier(b)
		})
		k.emitData(b)
	})
}

// Verify implements Kernel.
func (k *Livermore1) Verify(m *mem.Memory, p *asm.Program, threads int) error {
	return verifyF64(m, p.MustSymbol("x"), k.reference(), "x")
}
