package kernels

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/barrier"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/sim"
)

// LockReduce is the lock-protected reduction the sync engine's hardware
// locks exist for: each pass, every thread sums its block of the input
// locally, then folds the partial sum into one shared accumulator inside a
// hardware-lock critical section (acquire; load-add-store; release), and a
// barrier closes the pass. The accumulator updates are unordered across
// threads — addition commutes, so any grant order yields the same final
// value — but they must be mutually exclusive, which is exactly what the
// per-bank lock table serializes. srvet certifies the phases by treating
// same-lock critical sections as non-racing, and hbcheck sees the grant /
// release hand-off edges the lock table reports.
type LockReduce struct {
	N      int // elements; padded to a multiple of nthreads at build
	Passes int
}

// NewLockReduce builds the kernel.
func NewLockReduce(n, passes int) *LockReduce {
	if n < 1 {
		n = 1
	}
	if passes < 1 {
		passes = 1
	}
	return &LockReduce{N: n, Passes: passes}
}

// Name implements Kernel.
func (k *LockReduce) Name() string {
	return fmt.Sprintf("lockreduce[n=%d,passes=%d]", k.N, k.Passes)
}

// padN returns the padded element count: every thread owns the same number
// of elements.
func (k *LockReduce) padN(threads int) int {
	t := max(threads, 1)
	return (k.N + t - 1) / t * t
}

// val is element i's value, deterministic in i alone so seq/par builds and
// Verify agree for any padding.
func (k *LockReduce) val(i int) uint64 {
	return sim.NewRand(uint64(0x10C4+i*2654435761)).Uint64() % 100000
}

func (k *LockReduce) emitData(b *asm.Builder, threads int) {
	n := k.padN(threads)
	dataLabel(b, "in")
	for i := 0; i < n; i++ {
		b.Quad(k.val(i))
	}
	dataLabel(b, "acc")
	b.Space(64)
}

// emit emits the kernel; gen is nil for the sequential build (lock and
// barriers elided — one thread needs no mutual exclusion).
func (k *LockReduce) emit(b *asm.Builder, gen barrier.Generator, threads int) {
	const (
		t0 = isa.RegT0     // element pointer
		t1 = isa.RegT0 + 1 // local partial sum
		t2 = isa.RegT0 + 2 // scratch
		s0 = isa.RegS0     // pass counter
		s1 = isa.RegS0 + 1 // lock line address
		s2 = isa.RegS0 + 2 // block end pointer
		s4 = isa.RegS0 + 4 // acc address
	)
	n := k.padN(threads)
	c := n / max(threads, 1) // elements per thread

	b.Label("kern")
	if gen != nil {
		lockBase := barrier.DeclareLock(b, "acc", 0, threads)
		barrier.EmitLockAddr(b, s1, lockBase)
	}
	b.LA(s4, "acc")
	emitLoop(b, s0, k.Passes, "pass", func() {
		// p = in + 8*c*tid .. p + 8*c: a block partition.
		b.LI(t2, int64(c*8))
		b.MUL(t0, t2, isa.RegA0)
		b.LA(t2, "in")
		b.ADD(t0, t0, t2)
		b.ADDI(s2, t0, int32(c*8))
		b.LI(t1, 0)
		elem := b.NewLabel("elem")
		b.Label(elem)
		b.LD(t2, t0, 0)
		b.ADD(t1, t1, t2)
		b.ADDI(t0, t0, 8)
		b.BLT(t0, s2, elem)
		// Fold the partial sum into the shared accumulator under the lock.
		if gen != nil {
			barrier.EmitLockAcquire(b, s1)
		}
		b.LD(t2, s4, 0)
		b.ADD(t2, t2, t1)
		b.ST(t2, s4, 0)
		if gen != nil {
			barrier.EmitLockRelease(b, s1)
			// Close the pass: no thread may start the next pass's fold while
			// this one's is in flight (keeps pass boundaries phase-aligned).
			gen.EmitBarrier(b)
		}
	})
	k.emitData(b, threads)
}

// BuildSeq implements Kernel.
func (k *LockReduce) BuildSeq() (*asm.Program, error) { return build(nil, 1, k.emit) }

// BuildPar implements Kernel.
func (k *LockReduce) BuildPar(gen barrier.Generator, nthreads int) (*asm.Program, error) {
	return build(gen, nthreads, k.emit)
}

// Verify implements Kernel.
func (k *LockReduce) Verify(m *mem.Memory, p *asm.Program, threads int) error {
	n := k.padN(threads)
	var total uint64
	for i := 0; i < n; i++ {
		total += k.val(i)
	}
	want := total * uint64(k.Passes)
	if got := m.ReadUint64(p.MustSymbol("acc")); got != want {
		return fmt.Errorf("kernels: lockreduce acc = %d, want %d", got, want)
	}
	return nil
}
