// Package kernels generates the SRISC workloads evaluated in the paper,
// each in a sequential variant and a barrier-parallel SPMD variant:
//
//   - Microbench: the Figure 4 latency loop (K consecutive barriers × M
//     iterations with no work between them)
//   - Livermore loop 2 (incomplete Cholesky conjugate gradient excerpt)
//   - Livermore loop 3 (inner product)
//   - Livermore loop 6 (general linear recurrence, wavefront-parallel)
//   - Autcor: EEMBC-style fixed-point autocorrelation (synthetic speech
//     input; the EEMBC data is proprietary — see DESIGN.md)
//   - Viterbi: EEMBC-style K=5 convolutional Viterbi decoder over a
//     synthetic encoded bitstream
//
// Every kernel carries a Go reference implementation; Verify compares the
// simulated memory image against it bit-exactly (the generated code
// replicates the reference's floating-point accumulation order).
package kernels

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/barrier"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/mem"
)

// Kernel is one workload.
type Kernel interface {
	// Name identifies the kernel (e.g. "livermore3[N=256]").
	Name() string

	// BuildSeq builds the single-threaded program.
	BuildSeq() (*asm.Program, error)

	// BuildPar builds the SPMD program for nthreads threads using gen's
	// barrier. gen must have been created for the same thread count.
	BuildPar(gen barrier.Generator, nthreads int) (*asm.Program, error)

	// Verify checks the memory image left by a completed run of the
	// program p. threads is the thread count the program was built for
	// (1 for the sequential build).
	Verify(m *mem.Memory, p *asm.Program, threads int) error
}

// Chunk computes the paper's partitioning rule: at least minElems elements
// per thread so partitions cover whole cache lines, otherwise an even
// ceiling split. It returns the chunk size in elements.
func Chunk(n, threads, minElems int) int {
	c := (n + threads - 1) / threads
	if c < minElems {
		c = minElems
	}
	return c
}

// ChunkRange returns thread t's half-open element range under Chunk.
func ChunkRange(n, threads, minElems, t int) (lo, hi int) {
	c := Chunk(n, threads, minElems)
	lo = t * c
	hi = lo + c
	if lo > n {
		lo = n
	}
	if hi > n {
		hi = n
	}
	return lo, hi
}

// newBuilder returns a builder over the standard memory map.
func newBuilder() *asm.Builder {
	return asm.NewBuilder(core.TextBase, core.DataBase)
}

// buildSeq wraps a sequential body with the standard prologue/epilogue.
func buildSeq(body func(b *asm.Builder)) (*asm.Program, error) {
	b := newBuilder()
	body(b)
	b.HALT()
	return b.Build()
}

// build assembles a kernel written once as emit(b, gen, nthreads), the
// paper's §4.4 recipe: the sequential program is the parallel one without
// the tid partition and the barriers. A nil gen is the sequential build, for
// one thread.
func build(gen barrier.Generator, nthreads int, emit func(*asm.Builder, barrier.Generator, int)) (*asm.Program, error) {
	if gen == nil {
		return buildSeq(func(b *asm.Builder) { emit(b, nil, 1) })
	}
	return barrier.BuildProgram(gen, func(b *asm.Builder) { emit(b, gen, nthreads) })
}

// emitBarrier emits gen's barrier; the sequential build (nil gen) has none.
func emitBarrier(b *asm.Builder, gen barrier.Generator) {
	if gen != nil {
		gen.EmitBarrier(b)
	}
}

// emitRange emits the tid partition lo = min(tid·chunk, n), hi = min(lo +
// chunk, n) into registers lo and hi, with n held in lim.
func emitRange(b *asm.Builder, lo, hi, lim uint8, chunk, n int) {
	b.LI(lo, int64(chunk))
	b.MUL(lo, lo, isa.RegA0)
	b.LI(lim, int64(n))
	emitMin(b, lo, lim)
	b.ADDI(hi, lo, int32(chunk))
	emitMin(b, hi, lim)
}

// emitMin clamps r to at most lim.
func emitMin(b *asm.Builder, r, lim uint8) {
	ok := b.NewLabel("min")
	b.BLE(r, lim, ok)
	b.MV(r, lim)
	b.Label(ok)
}

// emitLoop emits a count-down loop that runs body count times (at least
// once: the test is at the bottom), counting in reg.
func emitLoop(b *asm.Builder, reg uint8, count int, hint string, body func()) {
	b.LI(reg, int64(count))
	loop := b.NewLabel(hint)
	b.Label(loop)
	body()
	b.ADDI(reg, reg, -1)
	b.BNEZ(reg, loop)
}

// emitReduce emits thread 0's reduction, in thread order, of the nthreads
// partials one cache line apart from base: zero clears the accumulator,
// fold adds the partial t0 points at, store writes the result. t0 and t1
// are the walk's pointer and count. The other threads branch past all of
// it. The labels are hint+"nz" and hint+"red".
func emitReduce(b *asm.Builder, hint string, base uint8, nthreads int, zero, fold, store func()) {
	const t0 = isa.RegT0
	skip := b.NewLabel(hint + "nz")
	b.BNEZ(isa.RegA0, skip)
	zero()
	b.MV(t0, base)
	emitLoop(b, isa.RegT0+1, nthreads, hint+"red", func() {
		fold()
		b.ADDI(t0, t0, 64)
	})
	store()
	b.Label(skip)
}

// dataLabel starts a cache-line-aligned data array called name.
func dataLabel(b *asm.Builder, name string) {
	b.AlignData(64)
	b.DataLabel(name)
}

// verifyF64 compares a float64 array in simulated memory against want.
func verifyF64(m *mem.Memory, base uint64, want []float64, what string) error {
	for i, w := range want {
		got := m.ReadFloat64(base + uint64(i*8))
		if got != w {
			return fmt.Errorf("kernels: %s[%d] = %v, want %v", what, i, got, w)
		}
	}
	return nil
}

// verifyU64 compares a uint64 array in simulated memory against want.
func verifyU64(m *mem.Memory, base uint64, want []uint64, what string) error {
	for i, w := range want {
		got := m.ReadUint64(base + uint64(i*8))
		if got != w {
			return fmt.Errorf("kernels: %s[%d] = %d, want %d", what, i, got, w)
		}
	}
	return nil
}
