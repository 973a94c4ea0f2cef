// Package harness defines and runs the paper's experiments: Table 1,
// Figure 4 (barrier latency vs core count), Figures 5/6 (EEMBC-style kernel
// speedups at 16 cores), and Figures 7/8/10 (Livermore loop execution time
// vs vector length). Each experiment builds the kernels through the barrier
// generators, runs them on freshly constructed machines, verifies results
// against the Go references, and returns structured data that cmd/bench and
// the root benchmarks render.
package harness

import (
	"context"
	"fmt"
	"reflect"
	"time"

	"repro/internal/asm"
	"repro/internal/barrier"
	"repro/internal/core"
	"repro/internal/hbcheck"
	"repro/internal/interconnect"
	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/sanitize"
	"repro/internal/vet"
)

// Options tunes experiment cost.
type Options struct {
	// Cores for the kernel experiments (the paper uses 16).
	Cores int
	// Quick shrinks problem sizes and repetition counts so the whole
	// suite runs in seconds; the shapes are preserved.
	Quick bool
	// Verify cross-checks every kernel run against its Go reference.
	Verify bool
	// MaxCycles bounds any single simulation (deadlock guard).
	MaxCycles uint64
	// Fabric selects the interconnect topology of every machine the
	// harness builds (zero value = the paper's shared bus; see
	// interconnect.Kinds for crossbar and mesh).
	Fabric interconnect.Kind
	// Fig4Cores overrides the core counts of the Figure 4 sweep
	// (default 4, 8, 16, 32, 64).
	Fig4Cores []int
	// ScaleCores overrides the core counts of the fabric-scaling sweep
	// (default 4, 8, 16, 32, 64).
	ScaleCores []int
	// Lengths overrides the vector lengths of the Figure 7/8/10 sweeps.
	Lengths []int
	// Workers is how many experiment cells run at once: the slot count
	// of the sweep's Runner (each cell is an independent machine; machines
	// share no mutable state). 0 means one per CPU; 1 is the same runner
	// with one slot, i.e. the sequential loop. Cells start in index order
	// and results are keyed by cell index, never completion order, so
	// every table and figure is bit-identical across worker counts.
	Workers int
	// FilterCap overrides the per-bank filter-table entry capacity
	// (mem.Config.FilterCap); 0 keeps the default. cmd/bench exposes it
	// as -filtercap.
	FilterCap int
	// NoFastPath disables the simulator's quiescent-core fast path
	// (differential testing; see core.Config.NoFastPath).
	NoFastPath bool
	// NoTranslate disables the basic-block translation cache, restoring
	// per-fetch decoding (differential testing; see
	// core.Config.NoTranslate). cmd/bench exposes it as -notranslate.
	NoTranslate bool
	// Sanitize enables the online invariant sanitizer (package sanitize)
	// on every machine the harness builds. Enabling it is
	// behaviour-invariant: all cycle counts and statistics stay
	// bit-identical; the only new outcome is a structured violation
	// report when an invariant is actually broken.
	Sanitize bool
	// HBCheck attaches the dynamic happens-before race checker (package
	// hbcheck) to every machine the harness builds. Like the sanitizer it
	// is behaviour-invariant on clean runs; a detected race stops the
	// cell with a located report. It is the dynamic half of the soundness
	// differential: programs the static verifier passes must replay
	// race-free under it. cmd/bench exposes it as -hbcheck.
	HBCheck bool
	// JournalPath, when non-empty, makes the journaling sweeps (Fig4,
	// RunChaos) append one JSONL record per finished cell, synced line by
	// line so a killed process leaves at most a torn final line.
	JournalPath string
	// Resume loads JournalPath first and skips (replays) every cell it
	// already records, so an interrupted sweep picks up where it left
	// off and the finished journal is byte-identical to an
	// uninterrupted run's.
	Resume bool
	// CellDeadline is a wall-clock budget per experiment cell, for every
	// experiment; 0 means none. Every machine a cell builds polls it, so a
	// cell over budget stops at its next stop-check poll with
	// core.ErrStopped and its last-progress cycle. A journaling sweep
	// records it as timed out and continues with the remaining cells;
	// any other sweep ends with that error.
	CellDeadline time.Duration
	// Ctx, when non-nil, cancels the whole sweep: no new cells start
	// after it is done, and every machine the harness builds polls it
	// through core.Config.StopCheck, so in-flight cells stop promptly
	// (with core.ErrStopped) instead of running to their cycle budget.
	// The simd server threads each request's context through here;
	// canceled cells are never journaled, so a resume re-runs them.
	Ctx context.Context
}

// DefaultOptions returns the paper-faithful configuration.
func DefaultOptions() Options {
	return Options{Cores: 16, Verify: true, MaxCycles: 2_000_000_000}
}

// QuickOptions returns a configuration that runs the full suite in seconds.
func QuickOptions() Options {
	o := DefaultOptions()
	o.Quick = true
	o.MaxCycles = 300_000_000
	return o
}

// spec renders the options a journaling sweep's spec-hash header covers
// (runCells): every field that can change a cell's result or whether it
// fails, as " Name=value" pairs. The fields left out cannot: the worker
// count, the deadline, the context, the journal's own path and mode, and the
// two behaviour-invariant toggles. A new field is covered unless named here.
func (o Options) spec() string {
	s := ""
	v := reflect.ValueOf(o)
	for i := 0; i < v.NumField(); i++ {
		switch name := v.Type().Field(i).Name; name {
		case "Workers", "CellDeadline", "Ctx", "JournalPath", "Resume", "NoFastPath", "NoTranslate":
		default:
			s += fmt.Sprintf(" %s=%v", name, v.Field(i).Interface())
		}
	}
	return s
}

// boot is the first half of every simulated machine's life, the same for
// every cell: build the program against cfg, vet it, construct the machine,
// attach the checkers the options ask for (the sanitizer first: its
// violation outranks a race), and install the program, the generator's
// hardware and the program's locks.
// No thread is started, so a caller can still attach to the machine (the
// fault injector does). build returns the generator whose hardware the
// program needs — nil for a sequential build, which installs nothing but
// the program. A failed step is named in the error, except the build's,
// which build labels itself (see parBuild); an ErrNoCapacity from a full
// bank table stays visible to errors.Is.
func (c *cellCtx) boot(what string, cfg core.Config, threads int,
	build func(cfg core.Config) (barrier.Generator, *asm.Program, error)) (*core.Machine, barrier.Generator, *asm.Program, error) {
	gen, prog, err := build(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	// A diagnostic means the build emitted a broken barrier protocol or a
	// dataflow bug that the simulator might only expose as a hang or silent
	// corruption millions of cycles later, so the cell fails fast instead.
	if err := vet.AsError(what, vet.Check(prog, vet.Options{Threads: threads})); err != nil {
		return nil, nil, nil, fmt.Errorf("building program: %w", err)
	}
	m, err := core.NewMachineChecked(cfg)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("building machine: %w", err)
	}
	if c.opt.Sanitize {
		sanitize.Attach(m, sanitize.Default())
	}
	if c.opt.HBCheck {
		hbcheck.Attach(m, hbcheck.Config{})
	}
	if gen == nil {
		m.Load(prog)
	} else if err := barrier.Install(m, gen, prog); err != nil {
		return nil, nil, nil, err
	}
	return m, gen, prog, nil
}

// runMachine is the life of one experiment machine: configure (the cell's
// deadline and the sweep's context become the machine's stop check), boot,
// start the SPMD threads, run to completion, verify. verify may be nil and
// is skipped unless Options.Verify is set. The chaos attempt (chaos.go)
// boots the same way and runs its own straight-line second half.
func (c *cellCtx) runMachine(what string, cores int,
	build func(cfg core.Config) (barrier.Generator, *asm.Program, error),
	verify func(m *mem.Memory, prog *asm.Program) error) (uint64, error) {
	m, _, prog, err := c.boot(what, c.Config(cores), cores, build)
	if err == nil {
		m.StartSPMD(prog.Entry, cores)
		var cycles uint64
		if cycles, err = m.Run(c.opt.MaxCycles); err == nil && verify != nil && c.opt.Verify {
			err = verify(m.Sys.Mem, prog)
		}
		if err == nil {
			return cycles, nil
		}
	}
	return 0, fmt.Errorf("harness: %s: %w", what, err)
}

// parBuild is the build step of a parallel cell: a fresh generator of kind
// (any kind barrier.ParseKind names) for nthreads threads over cfg's
// memory, and k's parallel program on it.
func parBuild(k kernels.Kernel, kind barrier.Kind, nthreads int) func(cfg core.Config) (barrier.Generator, *asm.Program, error) {
	return func(cfg core.Config) (barrier.Generator, *asm.Program, error) {
		gen, err := barrier.New(kind, nthreads, barrier.NewAllocator(cfg.Mem))
		if err != nil {
			return nil, nil, fmt.Errorf("building %s generator: %w", kind, err)
		}
		prog, err := k.BuildPar(gen, nthreads)
		if err != nil {
			return nil, nil, fmt.Errorf("building program: %w", err)
		}
		return gen, prog, nil
	}
}

// runKernel runs k built for kind on n threads, or for seqBuild its
// sequential build on a one-core machine, whatever n. The Figure 4 latency
// microbenchmark is such a kernel (kernels.Microbench), so the latency
// cells of Fig4, Extras and Scale come through here too.
func (c *cellCtx) runKernel(k kernels.Kernel, kind barrier.Kind, n int) (uint64, error) {
	what, build := fmt.Sprintf("%s/%s/%d", k.Name(), kind, n), parBuild(k, kind, n)
	if kind == seqBuild {
		n, what, build = 1, k.Name()+" seq", func(core.Config) (barrier.Generator, *asm.Program, error) {
			prog, err := k.BuildSeq()
			return nil, prog, err
		}
	}
	return c.runMachine(what, n, build, func(m *mem.Memory, prog *asm.Program) error { return k.Verify(m, prog, n) })
}

// RunSeq runs a kernel's sequential build on a single-core machine, as a
// cell of its own, and returns the cycle count.
func RunSeq(k kernels.Kernel, opt Options) (uint64, error) {
	return runCell(opt, func(c *cellCtx) (uint64, error) { return c.runKernel(k, seqBuild, 1) })
}

// RunPar runs a kernel's parallel build with the given barrier mechanism
// and thread count, as a cell of its own, and returns the cycle count.
func RunPar(k kernels.Kernel, kind barrier.Kind, nthreads int, opt Options) (uint64, error) {
	return runCell(opt, func(c *cellCtx) (uint64, error) { return c.runKernel(k, kind, nthreads) })
}
