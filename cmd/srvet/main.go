// Command srvet statically verifies SRISC kernel programs: it builds the
// requested kernel(s) through the barrier generators exactly as the harness
// would, then runs the package vet analyses — control flow, use-before-def,
// dead code, the filter-barrier arrival protocol, and the data-partition
// store discipline — and prints every diagnostic with its label-level
// position. It exits non-zero if any program fails.
//
// Usage:
//
//	srvet -all                           # every kernel × every mechanism
//	srvet -kernel livermore3 -threads 8  # one kernel, every mechanism
//	srvet -kernel autcor -barrier filter-d-pp -threads 16
//	srvet prog.s                         # assemble and vet a source file
//	srvet -barrier filter-d -threads 8 prog.s  # expand `barrier` as cmpsim would
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/asm"
	"repro/internal/barrier"
	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/vet"
)

// jsonReport is one vetted program in -json output: the report's own JSON
// form (diagnostics with code/addr/pos/phase/msg, phase certificates) under
// the program's name.
type jsonReport struct {
	Program string `json:"program"`
	OK      bool   `json:"ok"`
	Error   string `json:"error,omitempty"` // build/assemble failure
	*vet.Report
}

// emitJSON writes the collected reports as an indented JSON array.
func emitJSON(reports []jsonReport) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(reports); err != nil {
		fmt.Fprintln(os.Stderr, "srvet:", err)
		os.Exit(1)
	}
}

func main() {
	kernel := flag.String("kernel", "", "kernel to vet (see -list); empty with -all vets every kernel")
	all := flag.Bool("all", false, "vet every registered kernel (the CI gate)")
	list := flag.Bool("list", false, "list registered kernels and exit")
	barriers := flag.String("barrier", "", "comma-separated barrier mechanisms (default: all, plus the sequential build)")
	threads := flag.Int("threads", 8, "thread count the parallel builds are analyzed for")
	n := flag.Int("n", 0, "kernel problem size (0 = kernel default)")
	loops := flag.Int("loops", 0, "kernel loop/repeat count (0 = kernel default)")
	verbose := flag.Bool("v", false, "print every program checked, not just failures")
	jsonOut := flag.Bool("json", false, "emit a JSON array of per-program reports (diagnostics with code/pos/phase, phase certificates) instead of text")
	flag.Parse()

	var reports *[]jsonReport
	if *jsonOut {
		reports = &[]jsonReport{}
	}

	switch {
	case *list:
		for _, name := range kernels.Names() {
			fmt.Println(name)
		}
		return
	case flag.NArg() == 1:
		code := vetFile(flag.Arg(0), *barriers, *threads, reports)
		if reports != nil {
			emitJSON(*reports)
		}
		os.Exit(code)
	case flag.NArg() > 1:
		fmt.Fprintln(os.Stderr, "usage: srvet [flags] [prog.s]")
		os.Exit(2)
	}

	names := kernels.Names()
	if !*all {
		if *kernel == "" {
			fmt.Fprintln(os.Stderr, "srvet: need -kernel, -all, or a source file (see -help)")
			os.Exit(2)
		}
		names = []string{*kernel}
	}

	kinds, err := parseKinds(*barriers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "srvet:", err)
		os.Exit(2)
	}

	bad := 0
	for _, name := range names {
		bad += vetKernel(name, kinds, *threads, *n, *loops, *barriers == "", *verbose, reports)
	}
	if reports != nil {
		emitJSON(*reports)
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "srvet: %d program(s) failed\n", bad)
		os.Exit(1)
	}
	if *verbose && reports == nil {
		fmt.Println("srvet: all programs clean")
	}
}

// parseKinds resolves the -barrier list; empty means every mechanism.
func parseKinds(s string) ([]barrier.Kind, error) {
	if s == "" {
		kinds := append([]barrier.Kind{}, barrier.Kinds...)
		return append(kinds, barrier.ExtraKinds...), nil
	}
	var kinds []barrier.Kind
	for _, f := range strings.Split(s, ",") {
		k, err := barrier.ParseKind(strings.TrimSpace(f))
		if err != nil {
			return nil, err
		}
		kinds = append(kinds, k)
	}
	return kinds, nil
}

// vetKernel checks one kernel's sequential build (when seq is set) and its
// parallel build under each mechanism, returning the number of failing
// programs. With out non-nil, results accumulate there as JSON reports
// instead of printing.
func vetKernel(name string, kinds []barrier.Kind, threads, n, loops int, seq, verbose bool, out *[]jsonReport) int {
	bad := 0
	report := func(what string, r *vet.Report) {
		if out != nil {
			*out = append(*out, jsonReport{Program: what, OK: len(r.Diags) == 0, Report: r})
		}
		if len(r.Diags) == 0 {
			if verbose && out == nil {
				fmt.Printf("ok   %s\n", what)
			}
			return
		}
		bad++
		if out != nil {
			return
		}
		fmt.Printf("FAIL %s: %d diagnostic(s)\n", what, len(r.Diags))
		for _, d := range r.Diags {
			fmt.Printf("  %s\n", d)
		}
	}
	fail := func(what string, err error) {
		bad++
		if out != nil {
			*out = append(*out, jsonReport{Program: what, Error: err.Error()})
			return
		}
		fmt.Printf("FAIL %s: %v\n", what, err)
	}

	if seq {
		what := name + "/seq"
		k, err := kernels.New(name, n, loops)
		if err != nil {
			fail(what, err)
			return bad
		}
		p, err := k.BuildSeq()
		if err != nil {
			fail(what, err)
		} else {
			report(what, vet.Analyze(p, vet.Options{Threads: 1}))
		}
	}
	for _, kind := range kinds {
		what := fmt.Sprintf("%s/%s/t%d", name, kind, threads)
		k, err := kernels.New(name, n, loops)
		if err != nil {
			fail(what, err)
			return bad
		}
		alloc := barrier.NewAllocator(core.DefaultConfig(threads).Mem)
		gen, err := barrier.New(kind, threads, alloc)
		if err != nil {
			// Mechanism constraints (e.g. sw-tree needs a power of two)
			// are not program bugs.
			if verbose && out == nil {
				fmt.Printf("skip %s: %v\n", what, err)
			}
			continue
		}
		p, err := k.BuildPar(gen, threads)
		if err != nil {
			fail(what, err)
			continue
		}
		report(what, vet.Analyze(p, vet.Options{Threads: threads}))
	}
	return bad
}

// vetFile assembles a source file and vets it. With -barrier, the
// `barrier` pseudo-instruction is expanded by barrier.Assemble, as cmd/cmpsim
// expands it, so the program cmpsim would run is the program that gets
// vetted. With out non-nil, the result accumulates there as a JSON report.
func vetFile(path, barriers string, threads int, out *[]jsonReport) int {
	raw, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "srvet:", err)
		return 1
	}
	src := string(raw)
	var p *asm.Program
	if barriers != "" {
		var kind barrier.Kind
		var gen barrier.Generator
		kind, err = barrier.ParseKind(barriers)
		if err == nil {
			gen, err = barrier.New(kind, threads, barrier.NewAllocator(core.DefaultConfig(threads).Mem))
		}
		if err == nil {
			p, err = barrier.Assemble(gen, src)
		}
	} else {
		p, err = asm.Assemble(src, core.TextBase, core.DataBase)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "srvet:", err)
		return 1
	}
	r := vet.Analyze(p, vet.Options{Threads: threads})
	if out != nil {
		*out = append(*out, jsonReport{Program: path, OK: len(r.Diags) == 0, Report: r})
		if len(r.Diags) > 0 {
			return 1
		}
		return 0
	}
	for _, d := range r.Diags {
		fmt.Println(d)
	}
	if len(r.Diags) > 0 {
		return 1
	}
	fmt.Printf("ok   %s\n", path)
	return 0
}
