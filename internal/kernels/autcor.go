package kernels

import (
	"fmt"
	"math"

	"repro/internal/asm"
	"repro/internal/barrier"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/sim"
)

// Autcor is the EEMBC-style fixed-point autocorrelation kernel (the paper
// parallelizes EEMBC Auto-Correlation on the xspeech input with lag 32):
//
//	for (lag = 0; lag < lags; lag++) {
//	    acc = 0;
//	    for (i = 0; i < n-lag; i++) acc += x[i] * x[i+lag];
//	    r[lag] = acc;
//	}
//
// The EEMBC input data is proprietary; the samples here are a synthetic
// speech-like waveform (a sum of vowel-formant sinusoids plus noise,
// quantized to int16), which preserves the kernel's structure and memory
// behaviour (see DESIGN.md).
//
// The parallel version uses the paper's pair of barriers per lag: parallel
// partial accumulations, barrier, reduction by thread 0, barrier.
type Autcor struct {
	N     int
	Lags  int
	Loops int // repetitions (results are idempotent)

	x []int16
}

// NewAutcor builds the kernel with n synthetic speech samples.
func NewAutcor(n, lags, loops int) *Autcor {
	if err := checkAutcorN(n, lags); err != nil {
		panic(err.Error())
	}
	r := sim.NewRand(0xAC + uint64(n))
	k := &Autcor{N: n, Lags: lags, Loops: loops}
	for i := 0; i < n; i++ {
		t := float64(i) / 8000.0 // 8 kHz sampling
		v := 0.5*math.Sin(2*math.Pi*700*t) +
			0.3*math.Sin(2*math.Pi*1220*t) +
			0.15*math.Sin(2*math.Pi*2600*t) +
			0.05*r.Norm()
		s := int(v * 8000)
		if s > math.MaxInt16 {
			s = math.MaxInt16
		}
		if s < math.MinInt16 {
			s = math.MinInt16
		}
		k.x = append(k.x, int16(s))
	}
	return k
}

// checkAutcorN reports a size the sequential build cannot run: its
// multiply-accumulate loop is a do-while, so a lag at or past N would start
// its count at zero or below and never end.
func checkAutcorN(n, lags int) error {
	if lags < 1 || n < lags {
		return fmt.Errorf("kernels: autcor needs 1 <= lags <= N, got %d lags for N = %d", lags, n)
	}
	return nil
}

// Name implements Kernel.
func (k *Autcor) Name() string { return fmt.Sprintf("autcor[N=%d,lags=%d]", k.N, k.Lags) }

// reference computes the exact autocorrelation (integer arithmetic is
// order-independent, so one reference serves both variants).
func (k *Autcor) reference() []uint64 {
	out := make([]uint64, k.Lags)
	for lag := 0; lag < k.Lags; lag++ {
		acc := int64(0)
		for i := 0; i+lag < k.N; i++ {
			acc += int64(k.x[i]) * int64(k.x[i+lag])
		}
		out[lag] = uint64(acc)
	}
	return out
}

func (k *Autcor) emitData(b *asm.Builder, threads int) {
	dataLabel(b, "x")
	for _, v := range k.x {
		b.Half(uint16(v))
	}
	dataLabel(b, "r")
	b.Space(k.Lags * 8)
	if threads > 0 {
		dataLabel(b, "partials")
		b.Space(threads * 64)
	}
}

// emitMAC emits the multiply-accumulate loop:
//
//	for cnt (t2) iterations: acc (s5) += *(int16*)t0 * *(int16*)t1
//
// advancing both pointers by 2. Clobbers t3, t4.
func emitMAC(b *asm.Builder, label string) {
	const (
		t0 = isa.RegT0
		t1 = isa.RegT0 + 1
		t2 = isa.RegT0 + 2
		t3 = isa.RegT0 + 3
		t4 = isa.RegT0 + 4
		s5 = isa.RegS0 + 5
	)
	loop := b.NewLabel(label)
	b.Label(loop)
	b.LH(t3, t0, 0)
	b.LH(t4, t1, 0)
	b.MUL(t3, t3, t4)
	b.ADD(s5, s5, t3)
	b.ADDI(t0, t0, 2)
	b.ADDI(t1, t1, 2)
	b.ADDI(t2, t2, -1)
	b.BNEZ(t2, loop)
}

// BuildSeq implements Kernel. It is not BuildPar without the barriers: the
// sequential lag runs its whole N-lag range from x[0], with no clamp, no
// partial slot and no reduction, so the two are different instruction
// streams (both pinned by the kernel text golden).
func (k *Autcor) BuildSeq() (*asm.Program, error) {
	return buildSeq(func(b *asm.Builder) {
		const (
			t0 = isa.RegT0
			t1 = isa.RegT0 + 1
			t2 = isa.RegT0 + 2
			s0 = isa.RegS0     // lag
			s1 = isa.RegS0 + 1 // &x
			s2 = isa.RegS0 + 2 // &r
			s3 = isa.RegS0 + 3 // loops remaining
			s5 = isa.RegS0 + 5 // acc
		)
		b.LA(s1, "x")
		b.LA(s2, "r")
		emitLoop(b, s3, k.Loops, "pass", func() {
			b.LI(s0, 0)
			lagLoop := b.NewLabel("lag")
			b.Label(lagLoop)
			b.LI(s5, 0)
			b.MV(t0, s1) // &x[0]
			b.SLLI(t1, s0, 1)
			b.ADD(t1, s1, t1) // &x[lag]
			b.LI(t2, int64(k.N))
			b.SUB(t2, t2, s0) // n - lag iterations
			emitMAC(b, "mac")
			b.SLLI(t0, s0, 3)
			b.ADD(t0, s2, t0)
			b.ST(s5, t0, 0) // r[lag]
			b.ADDI(s0, s0, 1)
			b.LI(t1, int64(k.Lags))
			b.BLT(s0, t1, lagLoop)
		})
		k.emitData(b, 0)
	})
}

// BuildPar implements Kernel.
func (k *Autcor) BuildPar(gen barrier.Generator, nthreads int) (*asm.Program, error) {
	// Chunks are in samples; 32 int16 samples fill one cache line.
	chunk := Chunk(k.N, nthreads, 32)
	return barrier.BuildProgram(gen, func(b *asm.Builder) {
		const (
			t0 = isa.RegT0
			t1 = isa.RegT0 + 1
			t2 = isa.RegT0 + 2
			t3 = isa.RegT0 + 3
			s0 = isa.RegS0     // lag
			s1 = isa.RegS0 + 1 // &x
			s2 = isa.RegS0 + 2 // &r
			s3 = isa.RegS0 + 3 // my partial slot
			s4 = isa.RegS0 + 4 // partials base
			s5 = isa.RegS0 + 5 // acc
			a2 = isa.RegA0 + 2 // my lo (elements)
			a3 = isa.RegA0 + 3 // my hi (elements, unclamped by lag)
			a5 = isa.RegA0 + 5 // loops remaining
		)
		b.LA(s1, "x")
		b.LA(s2, "r")
		b.LA(s4, "partials")
		b.SLLI(t0, isa.RegA0, 6)
		b.ADD(s3, s4, t0)
		emitRange(b, a2, a3, t0, chunk, k.N)
		emitLoop(b, a5, k.Loops, "pass", func() {
			b.LI(s0, 0)
			lagLoop := b.NewLabel("lag")
			b.Label(lagLoop)
			// This lag's valid i range is [0, N-lag); mine is
			// [lo, min(hi, N-lag)).
			b.LI(t0, int64(k.N))
			b.SUB(t0, t0, s0) // N - lag
			b.MV(t1, a3)
			emitMin(b, t1, t0)
			b.LI(s5, 0)
			b.SUB(t2, t1, a2) // count
			noWork := b.NewLabel("nowork")
			b.BLE(t2, isa.RegZero, noWork)
			b.SLLI(t0, a2, 1)
			b.ADD(t0, s1, t0) // &x[lo]
			b.ADD(t1, a2, s0)
			b.SLLI(t1, t1, 1)
			b.ADD(t1, s1, t1) // &x[lo+lag]
			emitMAC(b, "mac")
			b.Label(noWork)
			b.ST(s5, s3, 0) // partials[tid]
			gen.EmitBarrier(b)
			emitReduce(b, "", s4, nthreads, func() {
				b.LI(s5, 0)
			}, func() {
				b.LD(t3, t0, 0)
				b.ADD(s5, s5, t3)
			}, func() {
				b.SLLI(t0, s0, 3)
				b.ADD(t0, s2, t0)
				b.ST(s5, t0, 0) // r[lag]
			})
			gen.EmitBarrier(b)
			b.ADDI(s0, s0, 1)
			b.LI(t1, int64(k.Lags))
			b.BLT(s0, t1, lagLoop)
		})
		k.emitData(b, nthreads)
	})
}

// Verify implements Kernel.
func (k *Autcor) Verify(m *mem.Memory, p *asm.Program, threads int) error {
	return verifyU64(m, p.MustSymbol("r"), k.reference(), "r")
}
