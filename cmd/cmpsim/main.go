// Command cmpsim assembles an SRISC program and runs it on the simulated
// CMP, printing each thread's console output (the OUT instruction) and,
// optionally, pipeline/memory statistics.
//
// Usage:
//
//	cmpsim [-cores N] [-threads T] [-barrier kind] [-cycles MAX] [-stats] [-trace] prog.s
//
// When -barrier is given, the program is wrapped with that mechanism's
// setup/stub code, and the source may invoke the pseudo-instruction
// `barrier` (lower-case, no operands) wherever a barrier is needed —
// barrier.Assemble expands it to the mechanism's sequence.
//
// -trace prints the machine's event stream to stdout, one line per event:
// the cycle, the event kind, then its fields (see tracer.OnEvent).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/asm"
	"repro/internal/barrier"
	"repro/internal/core"
	"repro/internal/mem"
)

func main() {
	cores := flag.Int("cores", 1, "number of physical cores")
	tpc := flag.Int("tpc", 1, "hardware thread contexts per core (Niagara-style when > 1)")
	threads := flag.Int("threads", 1, "number of SPMD threads (mapped onto logical cores)")
	barrierKind := flag.String("barrier", "", "barrier mechanism for the `barrier` pseudo-instruction: sw-central, sw-tree, hw-net, filter-i, filter-d, filter-i-pp, filter-d-pp")
	maxCycles := flag.Uint64("cycles", 100_000_000, "cycle limit")
	stats := flag.Bool("stats", false, "print machine statistics after the run")
	trace := flag.Bool("trace", false, "print one line per commit, memory and synchronization event (very verbose)")
	disasm := flag.Bool("S", false, "print the program listing before running")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: cmpsim [flags] prog.s")
		flag.Usage()
		os.Exit(2)
	}
	srcBytes, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	src := string(srcBytes)

	cfg := core.DefaultConfig(*cores)
	cfg.ThreadsPerCore = *tpc
	m := core.NewMachine(cfg)
	if *trace {
		m.Attach(tracer{os.Stdout})
	}

	var prog *asm.Program
	var gen barrier.Generator
	if *barrierKind != "" {
		kind, err := barrier.ParseKind(*barrierKind)
		if err != nil {
			fatal(err)
		}
		alloc := barrier.NewAllocator(cfg.Mem)
		gen, err = barrier.New(kind, *threads, alloc)
		if err != nil {
			fatal(err)
		}
		prog, err = barrier.Assemble(gen, src)
		if err != nil {
			fatal(err)
		}
		if err := barrier.Launch(m, gen, prog, *threads); err != nil {
			fatal(err)
		}
	} else {
		prog, err = asm.Assemble(src, core.TextBase, core.DataBase)
		if err != nil {
			fatal(err)
		}
		m.Load(prog)
		m.StartSPMD(prog.Entry, *threads)
	}

	if *disasm {
		fmt.Print(prog.Listing())
	}

	cycles, err := m.Run(*maxCycles)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("halted after %d cycles, %d instructions committed\n", cycles, m.TotalCommitted())
	for i, c := range m.Cores {
		if len(c.Console) > 0 {
			fmt.Printf("core %d out:", i)
			for _, v := range c.Console {
				fmt.Printf(" %d", int64(v))
			}
			fmt.Println()
		}
	}
	if *stats {
		fmt.Printf("%s, aggregate IPC %.2f\n", m, m.IPC())
		fmt.Print(m.StatsReport())
	}
}

// tracer is the -trace probe consumer.
type tracer struct{ w io.Writer }

var eventNames = [...]string{"", "commit", "load", "store", "mem",
	"barrier-arrive", "barrier-open", "lock-grant", "lock-release"}

// OnEvent prints e as "<cycle> <kind>" and the fields its kind sets.
func (t tracer) OnEvent(e mem.Event) {
	fmt.Fprintf(t.w, "%d %s ", e.Now, eventNames[e.Kind])
	switch e.Kind {
	case mem.EvCommit:
		fmt.Fprintf(t.w, "core%d pc=%#x next=%#x dest=%d val=%#x\n", e.Core, e.PC, e.Next, e.Dest, e.Value)
	case mem.EvLoad, mem.EvStore:
		fmt.Fprintf(t.w, "core%d pc=%#x addr=%#x size=%d\n", e.Core, e.PC, e.Addr, e.Size)
	case mem.EvMem:
		fmt.Fprintf(t.w, "%s\n", e.Txn)
	default:
		fmt.Fprintf(t.w, "key=%#x n=%d thread=%d\n", e.Key, e.N, e.Core)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cmpsim:", err)
	os.Exit(1)
}
