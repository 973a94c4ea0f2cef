package kernels

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/barrier"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/sim"
)

// Viterbi is the EEMBC-style Viterbi decoder kernel (the paper parallelizes
// the EEMBC Viterbi Decoder on the getti.dat input): a K=5, rate-1/2
// convolutional code (generators 23/35 octal, 16 trellis states) decoded
// with add-compare-select over a synthetic encoded bitstream.
//
// Structure follows the paper's parallelization: the 16 states of each
// trellis step are partitioned across threads; a barrier enforces ordering
// between successive steps ("barriers were used to enforce ordering between
// successive calls to parallelized subroutines"); thread 0 performs the
// sequential traceback at the end. The work between barriers is tiny (one
// add-compare-select per state), which is exactly why software barriers
// make the parallel version slower than sequential (Table 1, Figure 6).
type Viterbi struct {
	NBits int // message bits (before the 4 tail bits)
	Loops int // whole-frame decode repetitions (idempotent)

	message []int // 0/1
	rsym    []int // received 2-bit symbols per step (clean channel)
	bmtab   []int // bm[(n*4+r)*2+j]: branch metric for pred j of state n
	nsteps  int
}

// surRowBytes returns the byte size of one state's survivor row. Survivors
// are stored transposed — sur[state][step] — so each thread appends to its
// own cache lines instead of 16 threads false-sharing one row per step.
func (k *Viterbi) surRowBytes() int {
	return (k.nsteps*8 + 63) / 64 * 64
}

const (
	vitStates = 16
	vitG0     = 0x13 // 10011 (23 octal)
	vitG1     = 0x1D // 11101 (35 octal)
	vitInf    = 1 << 20
)

func parity5(x int) int {
	x &= 0x1F
	x ^= x >> 4
	x ^= x >> 2
	x ^= x >> 1
	return x & 1
}

// vitOutputs returns the two coded bits for leaving state p on input b.
func vitOutputs(p, b int) (int, int) {
	reg := (p << 1) | b // 5-bit encoder register
	return parity5(reg & vitG0), parity5(reg & vitG1)
}

// vitPred returns predecessor j (0 or 1) of state n and the input bit of
// the transition into n.
func vitPred(n, j int) (p, b int) {
	return (n >> 1) | (j << 3), n & 1
}

// NewViterbi builds the kernel: a deterministic message, its encoding, and
// the per-state branch-metric table.
func NewViterbi(nbits, loops int) *Viterbi {
	r := sim.NewRand(0x77 + uint64(nbits))
	k := &Viterbi{NBits: nbits, Loops: loops, nsteps: nbits + 4}
	for i := 0; i < nbits; i++ {
		k.message = append(k.message, r.Intn(2))
	}
	// Encode message + 4 tail zeros; state holds the last 4 input bits.
	state := 0
	bitsIn := append(append([]int(nil), k.message...), 0, 0, 0, 0)
	for _, b := range bitsIn {
		c0, c1 := vitOutputs(state, b)
		k.rsym = append(k.rsym, c0<<1|c1)
		state = ((state << 1) | b) & (vitStates - 1)
	}
	// Branch metrics: hamming distance between expected and received.
	k.bmtab = make([]int, vitStates*4*2)
	for n := 0; n < vitStates; n++ {
		for rs := 0; rs < 4; rs++ {
			for j := 0; j < 2; j++ {
				p, b := vitPred(n, j)
				c0, c1 := vitOutputs(p, b)
				exp := c0<<1 | c1
				d := exp ^ rs
				k.bmtab[(n*4+rs)*2+j] = (d & 1) + (d >> 1)
			}
		}
	}
	return k
}

// Name implements Kernel.
func (k *Viterbi) Name() string { return fmt.Sprintf("viterbi[bits=%d]", k.NBits) }

// reference runs the decoder in Go, mirroring the generated code exactly,
// and returns the decoded bits (which must equal the message on a clean
// channel).
func (k *Viterbi) reference() []uint64 {
	pm := make([]int, vitStates)
	next := make([]int, vitStates)
	for i := range pm {
		pm[i] = vitInf
	}
	pm[0] = 0
	sur := make([]int, k.nsteps*vitStates)
	for s := 0; s < k.nsteps; s++ {
		rs := k.rsym[s]
		for n := 0; n < vitStates; n++ {
			p0, _ := vitPred(n, 0)
			p1, _ := vitPred(n, 1)
			c0 := pm[p0] + k.bmtab[(n*4+rs)*2]
			c1 := pm[p1] + k.bmtab[(n*4+rs)*2+1]
			if c1 < c0 {
				next[n] = c1
				sur[s*vitStates+n] = 1
			} else {
				next[n] = c0
				sur[s*vitStates+n] = 0
			}
		}
		pm, next = next, pm
	}
	// Traceback from the best final state.
	best := 0
	for n := 1; n < vitStates; n++ {
		if pm[n] < pm[best] {
			best = n
		}
	}
	out := make([]uint64, k.nsteps)
	n := best
	for s := k.nsteps - 1; s >= 0; s-- {
		out[s] = uint64(n & 1)
		n, _ = vitPred(n, sur[s*vitStates+n])
	}
	return out[:k.NBits]
}

func (k *Viterbi) emitData(b *asm.Builder) {
	dataLabel(b, "rsym")
	for _, v := range k.rsym {
		b.Quad(uint64(v))
	}
	// Path metric buffers: one cache line per state to avoid false
	// sharing between threads.
	dataLabel(b, "pmA")
	for n := 0; n < vitStates; n++ {
		if n == 0 {
			b.Quad(0)
		} else {
			b.Quad(vitInf)
		}
		b.Space(56)
	}
	b.DataLabel("pmB")
	b.Space(vitStates * 64)
	b.DataLabel("sur")
	b.Space(vitStates * k.surRowBytes())
	b.DataLabel("decoded")
	b.Space(k.nsteps * 8)
}

// emitBranchMetric computes the branch metric for the transition encoded
// by the 5-bit register value in regIn against the received symbol in t5,
// leaving it in a6. Clobbers t3, t4. This mirrors the EEMBC kernel, which
// computes metrics per transition per step rather than via lookup tables.
func emitBranchMetric(b *asm.Builder, regIn uint8) {
	const (
		t3 = isa.RegT0 + 3
		t4 = isa.RegT0 + 4
		t5 = isa.RegT0 + 5 // received symbol (2 bits)
		a6 = isa.RegA0 + 6
	)
	// e0 = parity(reg & G0)
	b.ANDI(a6, regIn, vitG0)
	b.SRLI(t4, a6, 4)
	b.XOR(a6, a6, t4)
	b.SRLI(t4, a6, 2)
	b.XOR(a6, a6, t4)
	b.SRLI(t4, a6, 1)
	b.XOR(a6, a6, t4)
	b.ANDI(a6, a6, 1)
	b.SLLI(a6, a6, 1)
	// e1 = parity(reg & G1)
	b.ANDI(t3, regIn, vitG1)
	b.SRLI(t4, t3, 4)
	b.XOR(t3, t3, t4)
	b.SRLI(t4, t3, 2)
	b.XOR(t3, t3, t4)
	b.SRLI(t4, t3, 1)
	b.XOR(t3, t3, t4)
	b.ANDI(t3, t3, 1)
	b.OR(a6, a6, t3) // expected symbol
	// hamming2(expected ^ received)
	b.XOR(a6, a6, t5)
	b.ANDI(t3, a6, 1)
	b.SRLI(a6, a6, 1)
	b.ADD(a6, a6, t3)
}

// emitACS emits the add-compare-select loop for states [loReg, hiReg) of
// one step. Expects: s1 = pmCur base, s2 = pmNext base, s5 = &sur,
// t5 = received symbol, a4 = step*8 (survivor column offset),
// a7 = survivor row bytes. Clobbers t0..t4, a5, a6.
func (k *Viterbi) emitACS(b *asm.Builder, loReg, hiReg uint8, label string) {
	const (
		t0 = isa.RegT0     // n
		t1 = isa.RegT0 + 1 // cand0 / min
		t2 = isa.RegT0 + 2 // cand1
		t3 = isa.RegT0 + 3 // scratch addr
		t4 = isa.RegT0 + 4 // scratch
		s1 = isa.RegS0 + 1
		s2 = isa.RegS0 + 2
		s5 = isa.RegS0 + 5
		a4 = isa.RegA0 + 4
		a5 = isa.RegA0 + 5 // 5-bit transition register value
		a6 = isa.RegA0 + 6 // branch metric / j (selected predecessor)
		a7 = isa.RegA0 + 7 // survivor row bytes
	)
	loop := b.NewLabel(label)
	end := b.NewLabel(label + "e")
	b.MV(t0, loReg)
	b.Label(loop)
	b.BGE(t0, hiReg, end)
	// p0 = n>>1; path metrics of both predecessors (p1 = p0|8).
	b.SRLI(t3, t0, 1)
	b.SLLI(t3, t3, 6)
	b.ADD(t3, s1, t3)
	b.LD(t1, t3, 0) // pm[p0]
	b.LD(t2, t3, 8*64)
	// Transition register for predecessor 0: (p0<<1)|b, b = n&1.
	// Predecessor 1's register is the same value + 16 (p1 = p0|8).
	b.SRLI(a5, t0, 1)
	b.SLLI(a5, a5, 1)
	b.ANDI(t4, t0, 1)
	b.OR(a5, a5, t4)
	emitBranchMetric(b, a5)
	b.ADD(t1, t1, a6) // cand0
	b.ADDI(a5, a5, 16)
	emitBranchMetric(b, a5)
	b.ADD(t2, t2, a6) // cand1
	b.LI(a6, 0)
	keep0 := b.NewLabel(label + "k")
	b.BGE(t2, t1, keep0)
	b.MV(t1, t2)
	b.LI(a6, 1)
	b.Label(keep0)
	// pmNext[n] = min; sur[n][step] = j (transposed layout)
	b.SLLI(t3, t0, 6)
	b.ADD(t3, s2, t3)
	b.ST(t1, t3, 0)
	b.MUL(t3, t0, a7)
	b.ADD(t3, t3, a4)
	b.ADD(t3, s5, t3)
	b.ST(a6, t3, 0)
	b.ADDI(t0, t0, 1)
	b.J(loop)
	b.Label(end)
}

// emitTraceback emits the argmin + survivor walk (thread 0 / sequential).
// Expects s1 = final pm base, a7 = survivor row bytes. Clobbers t0..t4,
// a4..a6.
func (k *Viterbi) emitTraceback(b *asm.Builder) {
	const (
		t0 = isa.RegT0
		t1 = isa.RegT0 + 1
		t2 = isa.RegT0 + 2
		t3 = isa.RegT0 + 3
		t4 = isa.RegT0 + 4
		s1 = isa.RegS0 + 1
		a4 = isa.RegA0 + 4 // best state n
		a5 = isa.RegA0 + 5 // &sur
		a6 = isa.RegA0 + 6 // &decoded
	)
	// argmin over pm[0..15]
	b.LI(a4, 0)
	b.LD(t1, s1, 0) // best metric
	b.LI(t0, 1)
	arg := b.NewLabel("arg")
	argE := b.NewLabel("argE")
	skip := b.NewLabel("argskip")
	b.Label(arg)
	b.LI(t2, vitStates)
	b.BGE(t0, t2, argE)
	b.SLLI(t3, t0, 6)
	b.ADD(t3, s1, t3)
	b.LD(t2, t3, 0)
	b.BGE(t2, t1, skip)
	b.MV(t1, t2)
	b.MV(a4, t0)
	b.Label(skip)
	b.ADDI(t0, t0, 1)
	b.J(arg)
	b.Label(argE)

	b.LA(a5, "sur")
	b.LA(a6, "decoded")
	b.LI(t0, int64(k.nsteps-1)) // step
	tb := b.NewLabel("tb")
	tbE := b.NewLabel("tbE")
	b.Label(tb)
	b.BLT(t0, isa.RegZero, tbE)
	// decoded[step] = n & 1
	b.ANDI(t1, a4, 1)
	b.SLLI(t2, t0, 3)
	b.ADD(t2, a6, t2)
	b.ST(t1, t2, 0)
	// j = sur[n][step]; n = (n>>1) | (j<<3)
	b.MUL(t2, a4, isa.RegA0+7) // n * rowBytes (a7)
	b.SLLI(t3, t0, 3)          // step*8
	b.ADD(t2, t2, t3)
	b.ADD(t2, a5, t2)
	b.LD(t4, t2, 0)
	b.SRLI(a4, a4, 1)
	b.SLLI(t4, t4, 3)
	b.OR(a4, a4, t4)
	b.ADDI(t0, t0, -1)
	b.J(tb)
	b.Label(tbE)
}

// emitStepPrologue loads the step's symbol offset (t5 = r*16) and the
// survivor column offset (a4 = step*8), from step counter s0.
func (k *Viterbi) emitStepPrologue(b *asm.Builder) {
	const (
		t5 = isa.RegT0 + 5
		s0 = isa.RegS0
		s4 = isa.RegS0 + 4 // &rsym
		a4 = isa.RegA0 + 4
	)
	b.SLLI(t5, s0, 3)
	b.ADD(t5, s4, t5)
	b.LD(t5, t5, 0)   // r (received 2-bit symbol)
	b.SLLI(a4, s0, 3) // step*8
}

func (k *Viterbi) emitCommonSetup(b *asm.Builder) {
	const (
		s1 = isa.RegS0 + 1
		s2 = isa.RegS0 + 2
		s4 = isa.RegS0 + 4
		s5 = isa.RegS0 + 5
		a7 = isa.RegA0 + 7
	)
	b.LA(s1, "pmA")
	b.LA(s2, "pmB")
	b.LA(s4, "rsym")
	b.LA(s5, "sur")
	b.LI(a7, int64(k.surRowBytes()))
}

// emitSwap exchanges the pm buffer pointers (s1 <-> s2) via t0.
func emitSwap(b *asm.Builder) {
	const (
		t0 = isa.RegT0
		s1 = isa.RegS0 + 1
		s2 = isa.RegS0 + 2
	)
	b.MV(t0, s1)
	b.MV(s1, s2)
	b.MV(s2, t0)
}

// emitPMInit resets the current pm buffer (s1) for states [loReg, hiReg):
// state 0 gets metric 0, the rest vitInf. Clobbers t0..t2.
func (k *Viterbi) emitPMInit(b *asm.Builder, loReg, hiReg uint8, label string) {
	const (
		t0 = isa.RegT0
		t1 = isa.RegT0 + 1
		t2 = isa.RegT0 + 2
		s1 = isa.RegS0 + 1
	)
	loop := b.NewLabel(label)
	end := b.NewLabel(label + "e")
	nz := b.NewLabel(label + "nz")
	b.MV(t0, loReg)
	b.Label(loop)
	b.BGE(t0, hiReg, end)
	b.LI(t1, vitInf)
	b.BNEZ(t0, nz)
	b.LI(t1, 0)
	b.Label(nz)
	b.SLLI(t2, t0, 6)
	b.ADD(t2, s1, t2)
	b.ST(t1, t2, 0)
	b.ADDI(t0, t0, 1)
	b.J(loop)
	b.Label(end)
}

// BuildSeq implements Kernel.
func (k *Viterbi) BuildSeq() (*asm.Program, error) { return build(nil, 1, k.emit) }

// BuildPar implements Kernel. Threads beyond 16 idle at the barriers; the
// states are split evenly when nthreads <= 16.
func (k *Viterbi) BuildPar(gen barrier.Generator, nthreads int) (*asm.Program, error) {
	return build(gen, nthreads, k.emit)
}

// emit emits the decoder; with a nil gen the one thread owns all 16 states.
func (k *Viterbi) emit(b *asm.Builder, gen barrier.Generator, nthreads int) {
	const (
		s0 = isa.RegS0
		t0 = isa.RegT0
		a2 = isa.RegA0 + 2 // my lo state
		a3 = isa.RegA0 + 3 // my hi state
	)
	k.emitCommonSetup(b)
	if gen == nil {
		b.LI(a2, 0)
		b.LI(a3, vitStates)
	} else {
		emitRange(b, a2, a3, t0, max(vitStates/nthreads, 1), vitStates)
	}
	emitLoop(b, isa.RegGP, k.Loops, "pass", func() {
		// Reset this thread's slice of the path metrics, then
		// synchronize so no thread reads a neighbour's stale metric.
		b.LA(isa.RegS0+1, "pmA")
		b.LA(isa.RegS0+2, "pmB")
		k.emitPMInit(b, a2, a3, "pmi")
		emitBarrier(b, gen)
		b.LI(s0, 0)
		step := b.NewLabel("step")
		stepE := b.NewLabel("stepE")
		b.Label(step)
		b.LI(t0, int64(k.nsteps))
		b.BGE(s0, t0, stepE)
		k.emitStepPrologue(b)
		k.emitACS(b, a2, a3, "acs")
		emitBarrier(b, gen)
		emitSwap(b)
		b.ADDI(s0, s0, 1)
		b.J(step)
		b.Label(stepE)
		if gen == nil {
			k.emitTraceback(b)
			return
		}
		// Thread 0 does the sequential traceback while the rest
		// proceed to the next pass's init and wait at its barrier.
		done := b.NewLabel("done")
		b.BNEZ(isa.RegA0, done)
		k.emitTraceback(b)
		b.Label(done)
	})
	k.emitData(b)
}

// Verify implements Kernel: the decoded bits must equal the message (clean
// channel) and the reference decoder's output.
func (k *Viterbi) Verify(m *mem.Memory, p *asm.Program, threads int) error {
	want := k.reference()
	for i, bit := range want {
		if uint64(k.message[i]) != bit {
			return fmt.Errorf("kernels: viterbi reference decoder is broken at bit %d", i)
		}
	}
	return verifyU64(m, p.MustSymbol("decoded"), want, "decoded")
}
