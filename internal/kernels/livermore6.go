package kernels

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/barrier"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/sim"
)

// Livermore6 is Livermore loop kernel 6, a general linear recurrence:
//
//	for (i = 1; i < n; i++)
//	    for (k = 0; k < i; k++)
//	        w[i] += b[k][i] * w[(i-k)-1];
//
// The parallel version is the paper's wavefront transformation (§4.4,
// Figure 9): time step t makes every instance with i-k-1 == t executable in
// parallel, partitioned over threads by k chunks, with a global barrier per
// time step:
//
//	for (t = 0; t <= n-2; t++) {
//	    for (k = MYID*CHUNK; k < (MYID+1)*CHUNK; k++)
//	        if (k < n-t-1) w[t+k+1] += b[k][t+k+1] * w[t];
//	    Barrier();
//	}
//
// (The paper's listing guards with k < n-t; k < n-t-1 is the in-bounds
// form — w[t+k+1] must stay below n.) The wavefront accumulates each w[i]
// in ascending t order, i.e. descending k, so the parallel reference
// inverts the inner loop exactly as the paper describes.
type Livermore6 struct {
	N     int
	Loops int // passes over the kernel (Livermore harness style)

	w []float64
	b []float64 // row-major b[k][i] at b[k*N+i]
}

// NewLivermore6 builds the kernel with deterministic synthetic operands
// (|b| <= 0.05 keeps several in-place passes within float64 range even at
// N = 1024).
func NewLivermore6(n, loops int) *Livermore6 {
	r := sim.NewRand(0x66 + uint64(n))
	k := &Livermore6{N: n, Loops: loops}
	for i := 0; i < n; i++ {
		k.w = append(k.w, r.Float64()*2-1)
	}
	for i := 0; i < n*n; i++ {
		k.b = append(k.b, (r.Float64()*2-1)*0.05)
	}
	return k
}

// Name implements Kernel.
func (k *Livermore6) Name() string { return fmt.Sprintf("livermore6[N=%d]", k.N) }

// refSeq runs the original recurrence (ascending k), Loops passes.
func (k *Livermore6) refSeq() []float64 {
	w := append([]float64(nil), k.w...)
	for l := 0; l < k.Loops; l++ {
		for i := 1; i < k.N; i++ {
			for kk := 0; kk < i; kk++ {
				w[i] += k.b[kk*k.N+i] * w[i-kk-1]
			}
		}
	}
	return w
}

// refPar runs the wavefront order (ascending t == descending k per i),
// Loops passes.
func (k *Livermore6) refPar() []float64 {
	w := append([]float64(nil), k.w...)
	for l := 0; l < k.Loops; l++ {
		for t := 0; t <= k.N-2; t++ {
			for kk := 0; kk < k.N-t-1; kk++ {
				w[t+kk+1] += k.b[kk*k.N+t+kk+1] * w[t]
			}
		}
	}
	return w
}

func (k *Livermore6) emitData(b *asm.Builder) {
	dataLabel(b, "w")
	b.Double(k.w...)
	dataLabel(b, "b")
	b.Double(k.b...)
}

// BuildSeq implements Kernel. It is a different algorithm from BuildPar,
// not BuildPar without the barriers: the original recurrence (ascending k
// per i) against the wavefront (ascending t), which also sums each w[i] in
// a different order (refSeq vs refPar).
func (k *Livermore6) BuildSeq() (*asm.Program, error) {
	return buildSeq(func(b *asm.Builder) {
		const (
			a2 = isa.RegA0 + 2 // &w
			a3 = isa.RegA0 + 3 // &b
			s0 = isa.RegS0     // i
			s1 = isa.RegS0 + 1 // k
			t0 = isa.RegT0
			t1 = isa.RegT0 + 1
			t2 = isa.RegT0 + 2
			s4 = isa.RegS0 + 4 // loops remaining
		)
		b.LA(a2, "w")
		b.LA(a3, "b")
		emitLoop(b, s4, k.Loops, "pass", func() {
			b.LI(s0, 1)
			forI := b.NewLabel("forI")
			endI := b.NewLabel("endI")
			b.Label(forI)
			b.LI(t0, int64(k.N))
			b.BGE(s0, t0, endI)
			// f0 = w[i]
			b.SLLI(t0, s0, 3)
			b.ADD(t0, a2, t0)
			b.FLD(0, t0, 0)
			b.LI(s1, 0)
			forK := b.NewLabel("forK")
			endK := b.NewLabel("endK")
			b.Label(forK)
			b.BGE(s1, s0, endK)
			// f1 = b[k*N + i]
			b.LI(t1, int64(k.N))
			b.MUL(t1, t1, s1)
			b.ADD(t1, t1, s0)
			b.SLLI(t1, t1, 3)
			b.ADD(t1, a3, t1)
			b.FLD(1, t1, 0)
			// f2 = w[i-k-1]
			b.SUB(t2, s0, s1)
			b.ADDI(t2, t2, -1)
			b.SLLI(t2, t2, 3)
			b.ADD(t2, a2, t2)
			b.FLD(2, t2, 0)
			b.FMUL(1, 1, 2)
			b.FADD(0, 0, 1)
			b.ADDI(s1, s1, 1)
			b.J(forK)
			b.Label(endK)
			b.FST(0, t0, 0) // w[i]
			b.ADDI(s0, s0, 1)
			b.J(forI)
			b.Label(endI)
		})
		k.emitData(b)
	})
}

// BuildPar implements Kernel.
func (k *Livermore6) BuildPar(gen barrier.Generator, nthreads int) (*asm.Program, error) {
	chunk := Chunk(k.N-1, nthreads, 8)
	return barrier.BuildProgram(gen, func(b *asm.Builder) {
		const (
			a2 = isa.RegA0 + 2 // &w
			a3 = isa.RegA0 + 3 // &b
			s0 = isa.RegS0     // t
			s1 = isa.RegS0 + 1 // k
			s2 = isa.RegS0 + 2 // my k end (exclusive, unclamped)
			s3 = isa.RegS0 + 3 // my k start
			t0 = isa.RegT0
			t1 = isa.RegT0 + 1
			t2 = isa.RegT0 + 2
			t3 = isa.RegT0 + 3
			s4 = isa.RegS0 + 4 // loops remaining
		)
		b.LA(a2, "w")
		b.LA(a3, "b")
		b.LI(t0, int64(chunk))
		b.MUL(s3, t0, isa.RegA0) // k start = MYID*CHUNK
		b.ADD(s2, s3, t0)        // k end
		emitLoop(b, s4, k.Loops, "pass", func() {
			b.LI(s0, 0)
			forT := b.NewLabel("forT")
			endT := b.NewLabel("endT")
			b.Label(forT)
			b.LI(t0, int64(k.N-2))
			b.BGT(s0, t0, endT)

			// f1 = w[t] (stable during this step)
			b.SLLI(t0, s0, 3)
			b.ADD(t0, a2, t0)
			b.FLD(1, t0, 0)
			// limit = N - t - 1
			b.LI(t3, int64(k.N))
			b.SUB(t3, t3, s0)
			b.ADDI(t3, t3, -1)

			b.MV(s1, s3)
			forK := b.NewLabel("forK")
			endK := b.NewLabel("endK")
			b.Label(forK)
			b.BGE(s1, s2, endK)
			b.BGE(s1, t3, endK) // k < N-t-1 (chunks are contiguous, so this ends the loop)
			// w[t+k+1] += b[k][t+k+1] * w[t]
			b.ADD(t1, s0, s1)
			b.ADDI(t1, t1, 1) // i = t+k+1
			b.LI(t2, int64(k.N))
			b.MUL(t2, t2, s1)
			b.ADD(t2, t2, t1)
			b.SLLI(t2, t2, 3)
			b.ADD(t2, a3, t2)
			b.FLD(2, t2, 0) // b[k][i]
			b.SLLI(t1, t1, 3)
			b.ADD(t1, a2, t1)
			b.FLD(3, t1, 0) // w[i]
			b.FMUL(2, 2, 1)
			b.FADD(3, 3, 2)
			b.FST(3, t1, 0)
			b.ADDI(s1, s1, 1)
			b.J(forK)
			b.Label(endK)
			gen.EmitBarrier(b)
			b.ADDI(s0, s0, 1)
			b.J(forT)
			b.Label(endT)
		})
		k.emitData(b)
	})
}

// Verify implements Kernel.
func (k *Livermore6) Verify(m *mem.Memory, p *asm.Program, threads int) error {
	want := k.refSeq()
	if threads > 1 {
		want = k.refPar()
	}
	return verifyF64(m, p.MustSymbol("w"), want, "w")
}
