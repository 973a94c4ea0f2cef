package kernels

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/barrier"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/sim"
)

// Livermore2 is Livermore loop kernel 2, an excerpt from an incomplete
// Cholesky conjugate gradient code (transcribed from the paper's §4.4 C
// listing):
//
//	ii = n; ipntp = 0;
//	do {
//	    ipnt = ipntp; ipntp += ii; ii /= 2; i = ipntp;
//	    for (k = ipnt+1; k < ipntp; k += 2) {
//	        i++;
//	        x[i] = x[k] - v[k]*x[k-1] - v[k+1]*x[k+1];
//	    }
//	} while (ii > 1);
//
// The parallel version is the paper's chunked distribution: each do-while
// level partitions its pairs into chunks of at least 8 doubles and ends in
// a barrier. Available parallelism halves with each level, which is what
// gives Figure 7 its distinctive curvature.
type Livermore2 struct {
	N     int // initial ii; must be a power of two
	Loops int // passes over the kernel (Livermore harness style)

	x, v []float64
}

// NewLivermore2 builds the kernel with deterministic synthetic operands.
// The v values are kept small so repeated passes stay numerically tame.
func NewLivermore2(n, loops int) *Livermore2 {
	if err := checkLivermore2N(n); err != nil {
		panic(err.Error())
	}
	r := sim.NewRand(0x22 + uint64(n))
	k := &Livermore2{N: n, Loops: loops}
	size := 2*n + 8
	for i := 0; i < size; i++ {
		k.x = append(k.x, r.Float64()*2-1)
		k.v = append(k.v, (r.Float64()*2-1)*0.25)
	}
	return k
}

// checkLivermore2N reports an N the halving do-while cannot run on.
func checkLivermore2N(n int) error {
	if n&(n-1) != 0 || n < 4 {
		return fmt.Errorf("kernels: livermore2 needs a power-of-two N >= 4, got %d", n)
	}
	return nil
}

// Name implements Kernel.
func (k *Livermore2) Name() string { return fmt.Sprintf("livermore2[N=%d]", k.N) }

// reference runs the kernel Loops times over a copy of x and returns it.
// The parallel build computes bit-identical values: every x[i] uses the
// same expression over the same inputs, and levels are barrier-separated.
func (k *Livermore2) reference() []float64 {
	x := append([]float64(nil), k.x...)
	for l := 0; l < k.Loops; l++ {
		ii := k.N
		ipntp := 0
		for {
			ipnt := ipntp
			ipntp += ii
			ii /= 2
			i := ipntp
			for kk := ipnt + 1; kk < ipntp; kk += 2 {
				i++
				x[i] = x[kk] - k.v[kk]*x[kk-1] - k.v[kk+1]*x[kk+1]
			}
			if ii <= 1 {
				break
			}
		}
	}
	return x
}

func (k *Livermore2) emitData(b *asm.Builder) {
	dataLabel(b, "x")
	b.Double(k.x...)
	dataLabel(b, "v")
	b.Double(k.v...)
}

// emitBody emits one pair update: x[i] = x[k] - v[k]*x[k-1] - v[k+1]*x[k+1]
// with k in regK and i in regI; a2 = &x[0], a3 = &v[0]. Clobbers t1..t4,
// f0..f4.
func emitL2Body(b *asm.Builder, regK, regI uint8) {
	const (
		t1 = isa.RegT0 + 1
		t2 = isa.RegT0 + 2
		t3 = isa.RegT0 + 3
		t4 = isa.RegT0 + 4
		a2 = isa.RegA0 + 2
		a3 = isa.RegA0 + 3
	)
	b.SLLI(t1, regK, 3)
	b.ADD(t2, a2, t1) // &x[k]
	b.ADD(t3, a3, t1) // &v[k]
	b.FLD(0, t2, 0)   // x[k]
	b.FLD(1, t3, 0)   // v[k]
	b.FLD(2, t2, -8)  // x[k-1]
	b.FLD(3, t3, 8)   // v[k+1]
	b.FLD(4, t2, 8)   // x[k+1]
	b.FMUL(1, 1, 2)
	b.FSUB(0, 0, 1)
	b.FMUL(3, 3, 4)
	b.FSUB(0, 0, 3)
	b.SLLI(t4, regI, 3)
	b.ADD(t4, a2, t4)
	b.FST(0, t4, 0) // x[i]
}

// BuildSeq implements Kernel.
func (k *Livermore2) BuildSeq() (*asm.Program, error) { return build(nil, 1, k.emit) }

// BuildPar implements Kernel (the paper's parallel transcription).
func (k *Livermore2) BuildPar(gen barrier.Generator, nthreads int) (*asm.Program, error) {
	return build(gen, nthreads, k.emit)
}

// emit emits the kernel; with a nil gen every level's pairs are the one
// thread's and there is no chunk arithmetic.
func (k *Livermore2) emit(b *asm.Builder, gen barrier.Generator, nthreads int) {
	const (
		s0 = isa.RegS0     // ii
		s1 = isa.RegS0 + 1 // ipntp
		s2 = isa.RegS0 + 2 // ipnt
		s3 = isa.RegS0 + 3 // i
		s4 = isa.RegS0 + 4 // loops remaining
		s5 = isa.RegS0 + 5 // end
		t0 = isa.RegT0     // k
		t5 = isa.RegT0 + 5 // chunk / scratch
		a2 = isa.RegA0 + 2
		a3 = isa.RegA0 + 3
		a4 = isa.RegA0 + 4 // scratch
		a5 = isa.RegA0 + 5 // scratch
	)
	b.LA(a2, "x")
	b.LA(a3, "v")
	emitLoop(b, s4, k.Loops, "pass", func() {
		b.LI(s0, int64(k.N))
		b.LI(s1, 0)
		do := b.NewLabel("do")
		forK := b.NewLabel("forK")
		endK := b.NewLabel("endK")
		b.Label(do)
		b.MV(s2, s1)
		b.ADD(s1, s1, s0)
		b.SRAI(s0, s0, 1)
		b.MV(s3, s1)
		if gen == nil {
			b.ADDI(t0, s2, 1)
		} else {
			k.emitChunk(b, nthreads)
		}
		b.Label(forK)
		if gen != nil {
			b.BGE(t0, s5, endK)
		}
		b.BGE(t0, s1, endK)
		b.ADDI(s3, s3, 1)
		emitL2Body(b, t0, s3)
		b.ADDI(t0, t0, 2)
		b.J(forK)
		b.Label(endK)
		emitBarrier(b, gen)
		b.LI(t5, 1)
		b.BGT(s0, t5, do)
	})
	k.emitData(b)
}

// emitChunk emits the paper's per-level partition of the pairs in
// (ipnt, ipntp): this thread's first k in t0, its bound in s5, and i
// advanced past the pairs of lower threads. Clobbers t5, a4, a5.
func (k *Livermore2) emitChunk(b *asm.Builder, nthreads int) {
	const (
		s1 = isa.RegS0 + 1 // ipntp
		s2 = isa.RegS0 + 2 // ipnt
		s3 = isa.RegS0 + 3 // i
		s5 = isa.RegS0 + 5 // end
		t0 = isa.RegT0     // k
		t5 = isa.RegT0 + 5 // chunk
		a4 = isa.RegA0 + 4
		a5 = isa.RegA0 + 5
	)
	// chunk = (ipntp-ipnt)/2 + (ipntp-ipnt)%2
	b.SUB(t5, s1, s2)
	b.ANDI(a4, t5, 1)
	b.SRAI(t5, t5, 1)
	b.ADD(t5, t5, a4)
	// chunk = chunk/THREADS + ((chunk%THREADS)?1:0)
	b.LI(a4, int64(nthreads))
	b.REM(a5, t5, a4)
	b.DIV(t5, t5, a4)
	noRem := b.NewLabel("norem")
	b.BEQZ(a5, noRem)
	b.ADDI(t5, t5, 1)
	b.Label(noRem)
	// if (chunk < 8) chunk = 8
	b.LI(a4, 8)
	big := b.NewLabel("big")
	b.BGE(t5, a4, big)
	b.MV(t5, a4)
	b.Label(big)
	// i += MYID*chunk
	b.MUL(a4, t5, isa.RegA0)
	b.ADD(s3, s3, a4)
	// end = chunk*2*(MYID+1) + ipnt + 1
	b.ADDI(a5, isa.RegA0, 1)
	b.MUL(a5, a5, t5)
	b.SLLI(a5, a5, 1)
	b.ADD(s5, a5, s2)
	b.ADDI(s5, s5, 1)
	// k = ipnt + 1 + MYID*2*chunk
	b.SLLI(a4, a4, 1)
	b.ADDI(t0, s2, 1)
	b.ADD(t0, t0, a4)
}

// Verify implements Kernel.
func (k *Livermore2) Verify(m *mem.Memory, p *asm.Program, threads int) error {
	return verifyF64(m, p.MustSymbol("x"), k.reference(), "x")
}
