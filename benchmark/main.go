// Command benchmark is this repository's scoreboard: four workloads over the
// simulator and its service path, each measured end to end with tracing off
// and layer by layer in a separate traced pass. See README.md.
//
//	go run ./benchmark                         all four workloads, both passes
//	go run ./benchmark -workload spin16 -seed 3 -seconds 20 -trace 0
//	go run ./benchmark -out A.json; go run ./benchmark -out B.json
//	go run ./benchmark -compare A.json B.json
//	go run ./benchmark -write-golden           (from the repository root)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run this workload only and end with the one-line JSON result (default: all four, both passes)")
	seed := fs.Uint64("seed", 1, "permutes each workload's cell order; every seed simulates the same cells")
	seconds := fs.Float64("seconds", 20, "timed budget per workload and pass")
	trace := fs.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics of the traced pass")
	traceOut := fs.String("trace-out", "", "write the traced pass's spans here as Chrome trace JSON")
	out := fs.String("out", "", "without -workload: write every report here as JSON, the input of -compare")
	compare := fs.Bool("compare", false, "compare two -out files: -compare A.json B.json")
	writeGolden := fs.Bool("write-golden", false, "rewrite benchmark/golden.json from one rep of every workload")
	smoke := fs.Bool("smoke", false, "one rep per pass and one repeat per drive (the tests' mode)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "benchmark: unexpected arguments; -trace is 0 or 1")
		return 2
	}

	// Sweep servers keep their cache and journal under the current
	// directory, so a run reads and writes only inside its checkout.
	workDir, err := os.MkdirTemp(".", ".bench_work-")
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	defer os.RemoveAll(workDir)
	o := runOpts{seed: *seed, seconds: *seconds, smoke: *smoke, workDir: workDir, traceOut: *traceOut}

	switch {
	case *writeGolden:
		err = rewriteGolden(o, "benchmark/golden.json")
	case *workload != "":
		err = runOne(*workload, *trace == 1, o, stdout)
	default:
		err = runAll(o, *out, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	return 0
}

// runOne is the contract's mode: one workload, one pass, and the result
// object as the last line of standard output.
func runOne(name string, traced bool, o runOpts, stdout io.Writer) error {
	measure, defs := measureEndToEnd, endToEnd
	if traced {
		measure, defs = measureLayers, perLayer
	}
	r, err := measure(name, o)
	if err != nil {
		return err
	}
	printReport(stdout, name, r, defs)
	line, err := json.Marshal(r.result)
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// scoreboard is the -out file.
type scoreboard struct {
	Host      hostInfo                  `json:"host"`
	Workloads map[string]workloadReport `json:"workloads"`
}

type hostInfo struct {
	NProc   int     `json:"nproc"`
	Go      string  `json:"go"`
	Seed    uint64  `json:"seed"`
	Seconds float64 `json:"seconds"`
}

type workloadReport struct {
	EndToEnd report `json:"end_to_end"`
	PerLayer report `json:"per_layer"`
}

func runAll(o runOpts, outPath string, stdout io.Writer) error {
	sb := scoreboard{Host: hostInfo{runtime.NumCPU(), runtime.Version(), o.seed, o.seconds},
		Workloads: make(map[string]workloadReport)}
	traceOut := o.traceOut
	failed := 0
	for _, w := range workloads {
		e2e, err := measureEndToEnd(w.Name, o)
		if err != nil {
			return err
		}
		printReport(stdout, w.Name+" end-to-end", e2e, endToEnd)
		if traceOut != "" {
			o.traceOut = traceOut + "." + w.Name + ".json"
		}
		layers, err := measureLayers(w.Name, o)
		if err != nil {
			return err
		}
		printReport(stdout, w.Name+" per-layer (traced pass)", layers, perLayer)
		sb.Workloads[w.Name] = workloadReport{e2e, layers}
		failed += e2e.Failed + layers.Failed
	}
	if outPath != "" {
		b, err := json.MarshalIndent(sb, "", " ")
		if err != nil {
			return fmt.Errorf("encoding scoreboard: %w", err)
		}
		if err := os.WriteFile(outPath, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return nil
}

func printReport(w io.Writer, title string, r report, defs []metricDef) {
	fmt.Fprintf(w, "== %s: ops_attempted=%d ops_failed=%d\n", title, r.Attempted, r.Failed)
	for _, d := range defs {
		fmt.Fprintf(w, "%-34s %16.4f %s\n", d.Name, r.Metrics[d.Name].Value, d.Unit)
	}
	names := make([]string, 0, len(r.Timings))
	for n := range r.Timings {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "timing %-27s %s\n", n, r.Timings[n])
	}
	for _, e := range r.Errors {
		fmt.Fprintf(w, "FAILED %s\n", e)
	}
}

// rewriteGolden runs every workload once, unchecked, and records the
// digests. It is the only writer of golden.json.
func rewriteGolden(o runOpts, path string) error {
	g := golden{StatsKeys: digestKeys, Cells: make(map[string]string)}
	for _, w := range workloads {
		inst, err := newInstance(w.Name, o.seed, o.workDir)
		if err != nil {
			return err
		}
		s, err := inst.rep(nil)
		if err != nil {
			return err
		}
		reps := []sample{s}
		if sw, ok := inst.(*sweepInstance); ok {
			reps = append(reps, runCells("sweep-direct", sw.directCells(), nil))
		}
		for _, s := range reps {
			if s.failed > 0 {
				return fmt.Errorf("%s: %d cells failed; golden.json left alone: %v", w.Name, s.failed, s.errs)
			}
			for k, d := range s.digests {
				g.Cells[k] = d
			}
		}
	}
	b, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return fmt.Errorf("encoding golden: %w", err)
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
