package kernels

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/barrier"
	"repro/internal/isa"
	"repro/internal/mem"
)

// Microbench is the barrier latency microbenchmark of §4.2: following the
// methodology of Culler/Singh/Gupta, a loop of K consecutive barrier
// invocations with no work or delays between them, executed M times.
// Average time per barrier is total cycles / (K*M).
type Microbench struct {
	K int // consecutive barriers per loop iteration (paper: 64)
	M int // loop iterations (paper: 64)
}

// NewMicrobench returns the paper's configuration (64 × 64).
func NewMicrobench() *Microbench { return &Microbench{K: 64, M: 64} }

// Name implements Kernel.
func (k *Microbench) Name() string { return fmt.Sprintf("microbench[K=%d,M=%d]", k.K, k.M) }

// Invocations returns the total number of barrier episodes executed.
func (k *Microbench) Invocations() uint64 { return uint64(k.K) * uint64(k.M) }

// BuildSeq is meaningless for the latency microbenchmark; it returns an
// empty program that halts immediately (zero barriers).
func (k *Microbench) BuildSeq() (*asm.Program, error) {
	return buildSeq(func(b *asm.Builder) {})
}

// BuildPar implements Kernel.
func (k *Microbench) BuildPar(gen barrier.Generator, nthreads int) (*asm.Program, error) {
	return barrier.BuildProgram(gen, func(b *asm.Builder) {
		emitLoop(b, isa.RegS0, k.M, "outer", func() {
			for i := 0; i < k.K; i++ {
				gen.EmitBarrier(b)
			}
		})
	})
}

// Verify implements Kernel (the microbenchmark produces no data).
func (k *Microbench) Verify(m *mem.Memory, p *asm.Program, threads int) error { return nil }
