package cmpfb_test

import (
	"fmt"
	"log"

	cmpfb "repro"
	"repro/internal/isa"
)

// flagBarrier is a user-defined barrier mechanism, plugged in through the
// public BarrierGenerator interface: every thread sets its own arrival flag
// (one cache line each), thread 0 spins over all of them and then flips a
// release flag. It is a software barrier the paper did not evaluate.
type flagBarrier struct {
	nthreads    int
	arriveBase  uint64 // one line per thread
	releaseAddr uint64
}

const (
	regArrive  = 24 // own arrival flag address
	regBase    = 25 // arrival flag array base
	regRelease = 26 // release flag address
	regSense   = 28
	tmp1       = 30
	tmp2       = 31
)

func newFlagBarrier(nthreads int, alloc *cmpfb.Allocator) *flagBarrier {
	return &flagBarrier{
		nthreads:    nthreads,
		arriveBase:  alloc.AllocLines(nthreads),
		releaseAddr: alloc.AllocLines(1),
	}
}

func (f *flagBarrier) Kind() cmpfb.BarrierKind { return cmpfb.SWCentral } // closest built-in class
func (f *flagBarrier) Describe() string {
	return fmt.Sprintf("flag barrier (%d arrival lines + release flag)", f.nthreads)
}

func (f *flagBarrier) EmitSetup(b *cmpfb.ProgramBuilder) {
	b.LI(regBase, int64(f.arriveBase))
	b.SLLI(tmp1, isa.RegA0, 6)
	b.ADD(regArrive, regBase, tmp1)
	b.LI(regRelease, int64(f.releaseAddr))
	b.LI(regSense, 0)
}

func (f *flagBarrier) EmitBarrier(b *cmpfb.ProgramBuilder) {
	b.FENCE()
	b.XORI(regSense, regSense, 1)
	b.ST(regSense, regArrive, 0) // announce arrival

	done := b.NewLabel("fbdone")
	notZero := b.NewLabel("fbnz")
	b.BNEZ(isa.RegA0, notZero)
	// Thread 0 gathers: spin until every arrival flag equals sense.
	gather := b.NewLabel("fbgather")
	b.Label(gather)
	b.MV(tmp1, regBase)
	b.LI(tmp2, int64(f.nthreads))
	scan := b.NewLabel("fbscan")
	b.Label(scan)
	b.LD(29, tmp1, 0)
	b.BNE(29, regSense, gather) // any laggard: restart the scan
	b.ADDI(tmp1, tmp1, 64)
	b.ADDI(tmp2, tmp2, -1)
	b.BNEZ(tmp2, scan)
	b.ST(regSense, regRelease, 0) // release everyone
	b.J(done)
	// Other threads spin on the release flag.
	b.Label(notZero)
	spin := b.NewLabel("fbspin")
	b.Label(spin)
	b.LD(tmp1, regRelease, 0)
	b.BNE(tmp1, regSense, spin)
	b.Label(done)
	b.FENCE()
}

func (f *flagBarrier) EmitAux(b *cmpfb.ProgramBuilder) {}

func (f *flagBarrier) Install(m *cmpfb.Machine, p *cmpfb.Program) error { return nil }

// latency is cycles per barrier over 16 x 8 consecutive barriers.
func latency(gen cmpfb.BarrierGenerator, cfg cmpfb.Config, threads int) float64 {
	const K, M = 16, 8
	prog, err := cmpfb.BuildSPMD(gen, func(b *cmpfb.ProgramBuilder) {
		b.LI(isa.RegS0, M)
		outer := b.NewLabel("outer")
		b.Label(outer)
		for i := 0; i < K; i++ {
			gen.EmitBarrier(b)
		}
		b.ADDI(isa.RegS0, isa.RegS0, -1)
		b.BNEZ(isa.RegS0, outer)
	})
	if err != nil {
		log.Fatal(err)
	}
	m := cmpfb.NewMachine(cfg)
	if err := cmpfb.Launch(m, gen, prog, threads); err != nil {
		log.Fatal(err)
	}
	cycles, err := m.Run(200_000_000)
	if err != nil {
		log.Fatal(err)
	}
	return float64(cycles) / (K * M)
}

// Example_customBarrier races a user-defined barrier mechanism (flagBarrier)
// against built-in ones on a Figure 4 style loop of consecutive barriers,
// 16 cores, in cycles per barrier.
func Example_customBarrier() {
	const threads = 16
	cfg := cmpfb.DefaultConfig(threads)
	fb := newFlagBarrier(threads, cmpfb.NewAllocator(cfg))
	fmt.Printf("%-46s %8.1f\n", fb.Describe(), latency(fb, cfg, threads))
	for _, kind := range []cmpfb.BarrierKind{cmpfb.SWCentral, cmpfb.SWTree, cmpfb.FilterD} {
		cfg := cmpfb.DefaultConfig(threads)
		gen := cmpfb.MustNewBarrier(kind, threads, cmpfb.NewAllocator(cfg))
		fmt.Printf("%-46s %8.1f\n", kind, latency(gen, cfg, threads))
	}
	// Output:
	// flag barrier (16 arrival lines + release flag)    232.8
	// sw-central                                       1161.5
	// sw-tree                                           764.8
	// filter-d                                          120.9
}
