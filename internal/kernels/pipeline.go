package kernels

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/barrier"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/sim"
)

// Pipeline is a producer-consumer stage chain — the pipelined workload
// shape the barrier-only kernel suite could not express: the nthreads
// threads form nthreads pipeline stages connected by one single-line buffer
// per stage. Each iteration, stage t reads its input (stage 0 from in[],
// the rest from the previous stage's buffer), applies its per-stage
// transform (+t+1), and writes its output (the last stage to out[], the
// rest to its own buffer). Two barriers split every iteration into a pure
// read phase and a pure write phase, so reads of buffer t-1 and the
// overwrite of buffer t never race; the paper's fine-grain argument is that
// cheap barriers make exactly this per-item hand-off affordable.
//
// All threads run S+nthreads-1 iterations; the first nthreads-1 outputs are
// deterministic warm-up values from the zero-initialized buffers, and item
// s emerges at out[s+nthreads-1] = in[s] + nthreads(nthreads+1)/2. Verify
// replays the same schedule in Go, warm-up included.
type Pipeline struct {
	S      int // pipelined items
	Passes int // kept for registry sizing symmetry; multiplies S
}

// NewPipeline builds the kernel.
func NewPipeline(s, passes int) *Pipeline {
	if s < 1 {
		s = 1
	}
	if passes < 1 {
		passes = 1
	}
	return &Pipeline{S: s, Passes: passes}
}

// Name implements Kernel.
func (k *Pipeline) Name() string {
	return fmt.Sprintf("pipeline[s=%d,passes=%d]", k.S, k.Passes)
}

// items is the pipelined item count (sizing knobs folded together).
func (k *Pipeline) items() int { return k.S * k.Passes }

// total is the iteration count for a thread count: the pipeline runs until
// the last item has drained through every stage.
func (k *Pipeline) total(threads int) int { return k.items() + max(threads, 1) - 1 }

// val is item i's input value, deterministic in i alone. Iterations past
// the item count feed zeros (the in[] padding).
func (k *Pipeline) val(i int) uint64 {
	if i >= k.items() {
		return 0
	}
	return sim.NewRand(uint64(0x717E+i*40503)).Uint64() % 1000000
}

func (k *Pipeline) emitData(b *asm.Builder, threads int) {
	total := k.total(threads)
	dataLabel(b, "in")
	for i := 0; i < total; i++ {
		b.Quad(k.val(i))
	}
	dataLabel(b, "out")
	b.Space(total * 8)
	// One cache line per stage buffer: hand-offs are line-granular, so
	// neighbouring stages never false-share.
	dataLabel(b, "buf")
	b.Space(max(threads, 1) * 64)
}

// emit emits the kernel; gen is nil for the sequential build, where the
// single thread is both first and last stage (load in[i], +1, store out[i])
// and the barriers are elided.
func (k *Pipeline) emit(b *asm.Builder, gen barrier.Generator, threads int) {
	const (
		t0 = isa.RegT0     // item value x
		t1 = isa.RegT0 + 1 // scratch
		t2 = isa.RegT0 + 2 // iteration count
		t3 = isa.RegT0 + 3 // last stage id nthreads-1
		s0 = isa.RegS0     // iteration counter
		s1 = isa.RegS0 + 1 // in pointer (stage 0's input)
		s2 = isa.RegS0 + 2 // out pointer (last stage's output)
		s3 = isa.RegS0 + 3 // previous stage's buffer (this stage's input)
		s4 = isa.RegS0 + 4 // own buffer (this stage's output)
		s5 = isa.RegS0 + 5 // per-stage addend tid+1
	)
	total := k.total(threads)

	b.Label("kern")
	b.LA(s1, "in")
	b.LA(s2, "out")
	// s3 = buf + (tid-1)*64; for stage 0 it goes one line below buf and is
	// never dereferenced (stage 0 reads in[]).
	b.LA(s4, "buf")
	b.LI(t1, 64)
	b.MUL(t1, t1, isa.RegA0)
	b.ADD(s4, s4, t1)
	b.ADDI(s3, s4, -64)
	b.ADDI(s5, isa.RegA0, 1)
	b.LI(t2, int64(total))
	b.ADDI(t3, isa.RegA1, -1)
	b.LI(s0, 0)
	loop := b.NewLabel("iter")
	b.Label(loop)
	// Read phase: stage 0 takes the next input item, the rest take the
	// previous stage's hand-off.
	feed := b.NewLabel("feed")
	join1 := b.NewLabel("fedjoin")
	b.BEQZ(isa.RegA0, feed)
	b.LD(t0, s3, 0)
	b.J(join1)
	b.Label(feed)
	b.LD(t0, s1, 0)
	b.Label(join1)
	b.ADD(t0, t0, s5)
	// Reads above, writes below: without this barrier stage t's write
	// phase would overwrite buf[t] while stage t+1 still reads it.
	emitBarrier(b, gen)
	// Write phase: the last stage retires the item, the rest hand off.
	drain := b.NewLabel("drain")
	join2 := b.NewLabel("wrjoin")
	b.BEQ(isa.RegA0, t3, drain)
	b.ST(t0, s4, 0)
	b.J(join2)
	b.Label(drain)
	b.ST(t0, s2, 0)
	b.Label(join2)
	// And without this one, stage t+1's next read phase would race
	// stage t's in-flight hand-off store.
	emitBarrier(b, gen)
	b.ADDI(s1, s1, 8)
	b.ADDI(s2, s2, 8)
	b.ADDI(s0, s0, 1)
	b.BLT(s0, t2, loop)
	k.emitData(b, threads)
}

// BuildSeq implements Kernel.
func (k *Pipeline) BuildSeq() (*asm.Program, error) { return build(nil, 1, k.emit) }

// BuildPar implements Kernel.
func (k *Pipeline) BuildPar(gen barrier.Generator, nthreads int) (*asm.Program, error) {
	return build(gen, nthreads, k.emit)
}

// Verify implements Kernel: replay the pipeline schedule — all stages read,
// then all stages write — warm-up iterations included.
func (k *Pipeline) Verify(m *mem.Memory, p *asm.Program, threads int) error {
	n := max(threads, 1)
	total := k.total(threads)
	buf := make([]uint64, n)
	next := make([]uint64, n)
	out := p.MustSymbol("out")
	for i := 0; i < total; i++ {
		for t := 0; t < n; t++ {
			var x uint64
			if t == 0 {
				x = k.val(i)
			} else {
				x = buf[t-1]
			}
			next[t] = x + uint64(t+1)
		}
		for t := 0; t < n-1; t++ {
			buf[t] = next[t]
		}
		want := next[n-1]
		if got := m.ReadUint64(out + uint64(i*8)); got != want {
			return fmt.Errorf("kernels: pipeline out[%d] = %d, want %d", i, got, want)
		}
	}
	return nil
}
