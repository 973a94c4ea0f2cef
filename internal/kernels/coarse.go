package kernels

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/barrier"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/sim"
)

// CoarseGrain models the coarse-grained barrier usage the paper measures in
// SPLASH-2 Ocean (§4.1): long compute phases — each thread sums a private
// region held in its own L1 — separated by global barriers. With hundreds
// of thousands of instructions between barriers, barrier choice moves total
// time by only a few percent (the paper reports barriers under 4% of
// execution and a 3.5% overall improvement from filters), in contrast to
// the fine-grained kernels where it decides speedup versus slowdown.
type CoarseGrain struct {
	Phases    int // barrier episodes
	WorkElems int // 64-bit adds per thread per phase

	data []uint64
}

// NewCoarseGrain builds the kernel; every thread's private region holds the
// same deterministic values so the expected sums are thread-independent.
func NewCoarseGrain(phases, workElems int) *CoarseGrain {
	r := sim.NewRand(0xCC)
	k := &CoarseGrain{Phases: phases, WorkElems: workElems}
	for i := 0; i < workElems; i++ {
		k.data = append(k.data, r.Uint64()%1000)
	}
	return k
}

// Name implements Kernel.
func (k *CoarseGrain) Name() string {
	return fmt.Sprintf("coarse[phases=%d,work=%d]", k.Phases, k.WorkElems)
}

// expected returns the per-thread accumulator after all phases.
func (k *CoarseGrain) expected() uint64 {
	var s uint64
	for _, v := range k.data {
		s += v
	}
	return s * uint64(k.Phases)
}

func (k *CoarseGrain) emitData(b *asm.Builder, threads int) {
	dataLabel(b, "work")
	// One private copy of the region per thread, so no line is shared.
	for t := 0; t < threads; t++ {
		b.Quad(k.data...)
		b.AlignData(64)
	}
	b.DataLabel("sums")
	b.Space(threads * 64)
}

// regionBytes is the line-aligned size of one thread's private region.
func (k *CoarseGrain) regionBytes() int {
	return (k.WorkElems*8 + 63) / 64 * 64
}

// BuildSeq implements Kernel: the same total number of phases, one thread.
func (k *CoarseGrain) BuildSeq() (*asm.Program, error) { return build(nil, 1, k.emit) }

// BuildPar implements Kernel.
func (k *CoarseGrain) BuildPar(gen barrier.Generator, nthreads int) (*asm.Program, error) {
	return build(gen, nthreads, k.emit)
}

// emit emits the kernel; with a nil gen the one thread's region and sum
// slot are the first ones.
func (k *CoarseGrain) emit(b *asm.Builder, gen barrier.Generator, nthreads int) {
	const (
		s0 = isa.RegS0
		s1 = isa.RegS0 + 1 // own region
		s2 = isa.RegS0 + 2 // own sum slot
		s5 = isa.RegS0 + 5 // sum
		t0 = isa.RegT0
		t1 = isa.RegT0 + 1
		t2 = isa.RegT0 + 2
	)
	b.LA(s1, "work")
	if gen != nil {
		b.LI(t0, int64(k.regionBytes()))
		b.MUL(t0, t0, isa.RegA0)
		b.ADD(s1, s1, t0)
		b.LA(s2, "sums")
		b.SLLI(t0, isa.RegA0, 6)
		b.ADD(s2, s2, t0)
	}
	b.LI(s5, 0)
	emitLoop(b, s0, k.Phases, "phase", func() {
		// Sum this thread's private region into s5.
		b.MV(t0, s1)
		emitLoop(b, t1, k.WorkElems, "work", func() {
			b.LD(t2, t0, 0)
			b.ADD(s5, s5, t2)
			b.ADDI(t0, t0, 8)
		})
		emitBarrier(b, gen)
	})
	if gen == nil {
		b.LA(t0, "sums")
		b.ST(s5, t0, 0)
	} else {
		b.ST(s5, s2, 0)
	}
	k.emitData(b, nthreads)
}

// Verify implements Kernel.
func (k *CoarseGrain) Verify(m *mem.Memory, p *asm.Program, threads int) error {
	want := k.expected()
	base := p.MustSymbol("sums")
	for t := 0; t < max(threads, 1); t++ {
		if got := m.ReadUint64(base + uint64(t*64)); got != want {
			return fmt.Errorf("kernels: coarse sums[%d] = %d, want %d", t, got, want)
		}
	}
	return nil
}
