// Command bench regenerates the paper's tables and figures on the
// simulated CMP and prints them as text tables.
//
// Usage:
//
//	bench -exp all            # everything, quick sizes (default)
//	bench -exp fig4 -full     # one experiment at paper-faithful sizes
//	bench -exp table1,fig5
//
// Experiments: table1, fig4, fig5, fig6, fig7, fig8, fig10, all.
// -fabric and -cores re-run any of them on a different interconnect or
// machine width; -exp scale sweeps cores x fabric x mechanism explicitly.
//
// With -server URL, bench is instead a client for the simd simulation
// service (cmd/simd): it submits the -spec sweep and prints one result
// JSON per line on stdout (see cmd/bench/client.go).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/harness"
	"repro/internal/interconnect"
)

// show pairs an experiment with its renderer: run it, and on success print
// its table to stdout.
func show[O, T any](opt O, exp func(O) (T, error), write func(io.Writer, T)) func() error {
	return func() error {
		v, err := exp(opt)
		if err != nil {
			return err
		}
		write(os.Stdout, v)
		return nil
	}
}

// speedupFigure renders a one-kernel speedup row under its figure number.
func speedupFigure(figure string) func(io.Writer, harness.SpeedupRow) {
	return func(w io.Writer, row harness.SpeedupRow) {
		harness.WriteSpeedupRow(w, figure+" ("+row.Kernel+")", row)
	}
}

// parseInts parses a comma-separated integer list ("" = nil).
func parseInts(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	return out, nil
}

func main() {
	exp := flag.String("exp", "all", "comma-separated experiments: table1,fig4,fig5,fig6,fig7,fig8,fig10,ocean,extras,chaos,scale,all")
	full := flag.Bool("full", false, "paper-faithful sizes (slow); default is quick sizes with the same shapes")
	fabric := flag.String("fabric", "bus", "interconnect fabric for every machine: bus, xbar (crossbar), mesh, or optical")
	cores := flag.Int("cores", 0, "core count for the kernel experiments (0 = the paper's 16)")
	scalecores := flag.String("scalecores", "", "comma-separated core counts for -exp scale (default 4,8,16,32,64)")
	seed := flag.Uint64("seed", 1, "master seed for the chaos fault-injection matrix (replays byte-identically)")
	noverify := flag.Bool("noverify", false, "skip cross-checking kernel results against the Go references")
	workers := flag.Int("workers", 0, "experiment-cell goroutines (0 = one per CPU, 1 = sequential)")
	filtercap := flag.Int("filtercap", 0, "per-bank barrier-filter table entry capacity (0 = default; figure cells that overflow it fail with an attributed capacity error, chaos cells degrade to the software barrier)")
	nofastpath := flag.Bool("nofastpath", false, "disable the quiescent-core simulator fast path (differential debugging)")
	notranslate := flag.Bool("notranslate", false, "disable the basic-block translation cache (differential debugging)")
	sanitize := flag.Bool("sanitize", false, "run the online invariant sanitizer on every machine (behaviour-invariant; violations abort the cell with an attributed report)")
	hbcheck := flag.Bool("hbcheck", false, "run the dynamic happens-before race checker on every machine (behaviour-invariant; a detected data race aborts the cell with a located report)")
	journal := flag.String("journal", "", "append per-cell JSONL records for the journaling sweeps (fig4, chaos) to this file")
	resume := flag.Bool("resume", false, "skip cells already recorded in -journal (crash recovery for interrupted sweeps)")
	deadline := flag.Duration("deadline", 0, "wall-clock budget per cell of every experiment (0 = none); a cell over budget stops at its next stop check: journaled as timed out, the sweep continuing, under -journal, else the experiment's error")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	server := flag.String("server", "", "simd server base URL: run as a client, submitting -spec and printing one result JSON per line")
	spec := flag.String("spec", "", "sweep spec for -server: inline JSON, a file path, or - for stdin (default: a minimal microbench sweep)")
	flag.Parse()

	if *server != "" {
		os.Exit(runClient(*server, *spec))
	}
	if *spec != "" {
		fmt.Fprintln(os.Stderr, "-spec requires -server")
		os.Exit(2)
	}

	opt := harness.QuickOptions()
	if *full {
		opt = harness.DefaultOptions()
	}
	opt.Verify = !*noverify
	opt.Workers = *workers
	opt.FilterCap = *filtercap
	opt.NoFastPath = *nofastpath
	opt.NoTranslate = *notranslate
	opt.Sanitize = *sanitize
	opt.HBCheck = *hbcheck
	opt.JournalPath = *journal
	opt.Resume = *resume
	opt.CellDeadline = *deadline
	kind, err := interconnect.ParseKind(*fabric)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	opt.Fabric = kind
	if *cores > 0 {
		opt.Cores = *cores
	}
	if opt.ScaleCores, err = parseInts(*scalecores); err != nil {
		fmt.Fprintf(os.Stderr, "-scalecores: %v\n", err)
		os.Exit(2)
	}
	if *resume && *journal == "" {
		fmt.Fprintln(os.Stderr, "-resume requires -journal")
		os.Exit(2)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	// Validate every requested experiment name upfront: a typo in a list
	// ("-exp table1,fgi4") must fail loudly, not silently skip the cell.
	validExps := []string{"table1", "fig4", "fig5", "fig6", "fig7", "fig8", "fig10",
		"ocean", "extras", "chaos", "scale", "all"}
	want := map[string]bool{}
	for _, e := range strings.Split(*exp, ",") {
		name := strings.TrimSpace(e)
		if !slices.Contains(validExps, name) {
			fmt.Fprintf(os.Stderr, "-exp: unknown experiment %q (valid: %s)\n",
				name, strings.Join(validExps, ", "))
			os.Exit(2)
		}
		want[name] = true
	}
	all := want["all"]
	ran := 0
	var total time.Duration

	run := func(name string, fn func() error) {
		if !all && !want[name] {
			return
		}
		ran++
		start := time.Now()
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		elapsed := time.Since(start)
		total += elapsed
		fmt.Printf("(%s took %.1fs)\n\n", name, elapsed.Seconds())
	}

	run("table1", show(opt, harness.Table1, func(w io.Writer, rows []harness.SpeedupRow) {
		harness.WriteTable1(w, rows)
		fmt.Fprintln(w)
		for _, r := range rows {
			harness.WriteSpeedupRow(w, r.Kernel, r)
		}
	}))
	run("fig4", show(opt, harness.Fig4, harness.WriteFig4))
	run("fig5", show(opt, harness.Fig5, speedupFigure("Figure 5")))
	run("fig6", show(opt, harness.Fig6, speedupFigure("Figure 6")))
	run("fig7", show(opt, harness.Fig7, harness.WriteTimeSeries))
	run("fig8", show(opt, harness.Fig8, harness.WriteTimeSeries))
	run("extras", show(opt, harness.Extras, harness.WriteExtras))
	run("ocean", show(opt, harness.CoarseGrain, harness.WriteCoarseGrain))
	// scale is opt-in (-exp scale): it sweeps cores x fabric x mechanism
	// past the paper's machine, so "all" (the paper's figures) does not
	// imply it.
	if want["scale"] {
		run("scale", show(opt, harness.Scale, harness.WriteScale))
	}
	// chaos is opt-in (-exp chaos): it is a robustness matrix, not one of
	// the paper's figures, so "all" does not imply it.
	if want["chaos"] {
		copt := harness.DefaultChaosOptions()
		copt.Options = opt
		copt.MaxCycles = 2_000_000
		copt.Seed = *seed
		run("chaos", show(copt, harness.RunChaos, func(w io.Writer, cells []harness.ChaosCell) {
			harness.WriteChaos(w, copt.Seed, cells)
		}))
	}
	run("fig10", show(opt, harness.Fig10, harness.WriteTimeSeries))

	fmt.Printf("(total harness wall time: %.1fs over %d experiment(s), workers=%d)\n",
		total.Seconds(), ran, opt.Workers)
}
