package cmpfb_test

import (
	"fmt"
	"log"

	cmpfb "repro"
	"repro/internal/isa"
)

// Example demonstrates the complete flow: build a barrier, compose an SPMD
// program around it, run it on the simulated CMP, and read results back.
func Example() {
	const threads = 4
	cfg := cmpfb.DefaultConfig(threads)
	alloc := cmpfb.NewAllocator(cfg)
	gen := cmpfb.MustNewBarrier(cmpfb.FilterD, threads, alloc)

	prog, err := cmpfb.BuildSPMD(gen, func(b *cmpfb.ProgramBuilder) {
		// Each thread writes tid+1 to its private slot...
		b.LA(isa.RegT0, "slots")
		b.SLLI(isa.RegT0+1, isa.RegA0, 6)
		b.ADD(isa.RegT0, isa.RegT0, isa.RegT0+1)
		b.ADDI(isa.RegT0+1, isa.RegA0, 1)
		b.ST(isa.RegT0+1, isa.RegT0, 0)
		// ...crosses the barrier filter...
		gen.EmitBarrier(b)
		// ...and thread 0 sums all slots.
		done := b.NewLabel("done")
		b.BNEZ(isa.RegA0, done)
		b.LA(isa.RegT0, "slots")
		b.LI(isa.RegT0+1, 0)
		b.LI(isa.RegT0+2, threads)
		loop := b.NewLabel("loop")
		b.Label(loop)
		b.LD(isa.RegT0+3, isa.RegT0, 0)
		b.ADD(isa.RegT0+1, isa.RegT0+1, isa.RegT0+3)
		b.ADDI(isa.RegT0, isa.RegT0, 64)
		b.ADDI(isa.RegT0+2, isa.RegT0+2, -1)
		b.BNEZ(isa.RegT0+2, loop)
		b.OUT(isa.RegT0 + 1)
		b.Label(done)
		b.AlignData(64)
		b.DataLabel("slots")
		b.Space(threads * 64)
	})
	if err != nil {
		log.Fatal(err)
	}

	m := cmpfb.NewMachine(cfg)
	if err := cmpfb.Launch(m, gen, prog, threads); err != nil {
		log.Fatal(err)
	}
	if _, err := m.Run(1_000_000); err != nil {
		log.Fatal(err)
	}
	fmt.Println("sum:", m.Cores[0].Console[0])
	// Output: sum: 10
}

// Example_smt packs the same 16 threads three ways — 16 single-threaded
// cores, 8 dual-context cores, 4 quad-context (Niagara-like) cores — running
// the autocorrelation kernel with a D-cache filter barrier, each result
// verified against the Go reference. Contexts share their core's L1 caches
// and MSHRs (§3.2.1), so denser packings trade per-thread pipeline and cache
// bandwidth for fewer physical cores.
func Example_smt() {
	const threads = 16
	k := cmpfb.NewAutcor(1024, 8, 2)
	fmt.Printf("%-22s %12s %8s\n", "topology", "cycles", "vs 16x1")
	var base uint64
	for _, tpc := range []int{1, 2, 4} {
		cfg := cmpfb.DefaultConfig(threads / tpc)
		cfg.ThreadsPerCore = tpc
		gen := cmpfb.MustNewBarrier(cmpfb.FilterD, threads, cmpfb.NewAllocator(cfg))
		prog, err := k.BuildPar(gen, threads)
		if err != nil {
			log.Fatal(err)
		}
		m := cmpfb.NewMachine(cfg)
		if err := cmpfb.Launch(m, gen, prog, threads); err != nil {
			log.Fatal(err)
		}
		cycles, err := m.Run(500_000_000)
		if err != nil {
			log.Fatal(err)
		}
		if err := k.Verify(m.Sys.Mem, prog, threads); err != nil {
			log.Fatal(err)
		}
		if tpc == 1 {
			base = cycles
		}
		fmt.Printf("%2d cores x %d contexts  %12d %7.2fx\n",
			threads/tpc, tpc, cycles, float64(cycles)/float64(base))
	}
	// Output:
	// topology                     cycles  vs 16x1
	// 16 cores x 1 contexts          8873    1.00x
	//  8 cores x 2 contexts         12266    1.38x
	//  4 cores x 4 contexts         19412    2.19x
}

// ExampleAssemble runs a hand-written SRISC program on one core.
func ExampleAssemble() {
	prog, err := cmpfb.Assemble(`
	li   t0, 1
	li   t1, 10
	li   t2, 0
loop:
	add  t2, t2, t0
	addi t0, t0, 1
	ble  t0, t1, loop
	out  t2
	halt
	`)
	if err != nil {
		log.Fatal(err)
	}
	m := cmpfb.NewMachine(cmpfb.DefaultConfig(1))
	m.Load(prog)
	m.StartSPMD(prog.Entry, 1)
	if _, err := m.Run(1_000_000); err != nil {
		log.Fatal(err)
	}
	fmt.Println("1+..+10 =", m.Cores[0].Console[0])
	// Output: 1+..+10 = 55
}

// ExampleNewLivermore3 runs a paper kernel sequentially and verifies it
// against its Go reference.
func ExampleNewLivermore3() {
	k := cmpfb.NewLivermore3(64, 1)
	prog, err := k.BuildSeq()
	if err != nil {
		log.Fatal(err)
	}
	m := cmpfb.NewMachine(cmpfb.DefaultConfig(1))
	m.Load(prog)
	m.StartSPMD(prog.Entry, 1)
	if _, err := m.Run(10_000_000); err != nil {
		log.Fatal(err)
	}
	fmt.Println("verified:", k.Verify(m.Sys.Mem, prog, 1) == nil)
	// Output: verified: true
}

// ExampleNewBarrierManager shows the OS-style registration flow with
// fallback when the filter hardware is exhausted.
func ExampleNewBarrierManager() {
	cfg := cmpfb.DefaultConfig(4)
	cfg.FilterSlotsPerBank = 0 // pretend another application holds them all
	m := cmpfb.NewMachine(cfg)
	mgr := cmpfb.NewBarrierManager(m)
	h, err := mgr.Register(cmpfb.FilterI, 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("requested:", h.Requested)
	fmt.Println("granted:  ", h.Granted)
	// Output:
	// requested: filter-i
	// granted:   sw-central
}
