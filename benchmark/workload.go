package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/sim"
	"repro/internal/simd"
)

// workloadDef names a workload and records why it is in the benchmark.
type workloadDef struct{ Name, Why string }

var workloads = []workloadDef{
	{"compute16", "16 busy cores on filter/hw barriers: cpu pipeline stages dominate host time, so issue/LSQ/translation work shows here"},
	{"spin16", "spin-wait software barriers never quiesce: LL/SC and invalidation traffic load mem banks and fabrics every cycle; parked-core gains show nothing"},
	{"parked64", "64 cores parked on the sync engine: almost every core-cycle is skipped, so filter tables, fabric NextEvent/SkipIdle and machine construction dominate"},
	{"sweep", "simd service path, closed loop: few-ms cells, so admission, journal fsync, Normalize+vet and construction weigh as much as simulation; replay/overlap/recompute vary shared work"},
}

// sample is what one rep of a workload yields: one pass over the cell list,
// or for sweep one round of four exchanges.
type sample struct {
	// wall is the time cells_per_s is computed from and cells the cells it
	// covers: the whole rep, or the cold sweep of a round.
	wall  time.Duration
	cells int
	// sim is the host time spent simulating and cycles the simulated
	// cycles it produced: time inside Machine.Run, or the cold sweep.
	sim    time.Duration
	cycles uint64
	insts  uint64 // committed instructions (sim workloads only)

	attempted, failed int
	errs              []string
	digests           map[string]string // golden key → digest

	// stats sums StatsReport over the rep's cells; cellCycles keeps each
	// cell's cycles. allocConstruct/allocRun are filled in traced reps.
	stats                    map[string]uint64
	cellCycles               map[string]uint64
	allocConstruct, allocRun uint64

	round sweepRound // sweep only
}

// instance is a workload set up for one seed.
type instance interface {
	rep(tr *tracer) (sample, error)
}

//go:embed golden.json
var goldenJSON []byte

// golden is golden.json: per-cell digests, written only by -write-golden.
// -seed only reorders cells, so the digests hold at every seed.
type golden struct {
	StatsKeys []string          `json:"stats_keys"`
	Cells     map[string]string `json:"cells"`
}

func loadGolden() (golden, error) {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return g, fmt.Errorf("golden.json: %w", err)
	}
	if len(g.Cells) > 0 && strings.Join(g.StatsKeys, ",") != strings.Join(digestKeys, ",") {
		return g, fmt.Errorf("golden.json was written for another stats-key list; rerun -write-golden")
	}
	return g, nil
}

// shuffled returns a copy of xs permuted by seed (Fisher–Yates over the
// repository's own generator, so the order is the same on every toolchain).
func shuffled[T any](xs []T, seed uint64) []T {
	out := append([]T(nil), xs...)
	r := sim.NewRand(seed)
	for i := len(out) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

func newInstance(name string, seed uint64, workDir string) (instance, error) {
	if cells, ok := simWorkloads[name]; ok {
		return &simInstance{name: name, cells: shuffled(cells, seed)}, nil
	}
	if name != "sweep" {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	a, b := sweepSpecs(seed)
	return &sweepInstance{workDir: workDir, workers: min(sweepWorkerCap, runtime.NumCPU()), a: a, b: b}, nil
}

type simInstance struct {
	name  string
	cells []simCell
}

func (w *simInstance) rep(tr *tracer) (sample, error) {
	return runCells(w.name, w.cells, tr), nil
}

// runCells runs a cell list once, on the calling goroutine.
func runCells(prefix string, cells []simCell, tr *tracer) sample {
	s := sample{cells: len(cells), attempted: len(cells),
		digests: make(map[string]string), stats: make(map[string]uint64), cellCycles: make(map[string]uint64)}
	t0 := time.Now()
	for _, c := range cells {
		o, err := runSimCell(c, knobs{}, tr)
		if err != nil {
			s.failed++
			s.errs = append(s.errs, err.Error())
			continue
		}
		s.sim += o.run
		s.cycles += o.cycles
		s.insts += o.insts
		s.allocConstruct += o.allocConstruct
		s.allocRun += o.allocRun
		s.digests[prefix+"/"+c.id()] = o.digest
		s.cellCycles[c.id()] = o.cycles
		for k, v := range o.stats {
			s.stats[k] += v
		}
	}
	s.wall = time.Since(t0)
	return s
}

type sweepInstance struct {
	workDir string
	workers int
	a, b    simd.Spec
}

// directCells are the sweep's programs as plain cells. The service hides
// its layers behind HTTP, so the traced pass also takes each kernel ×
// mechanism of spec A down the direct path, once per round, to attribute a
// sweep cell's time to build, vet, construct and run and to read the
// simulated counters the results do not carry.
func (w *sweepInstance) directCells() []simCell {
	var cs []simCell
	for _, k := range w.a.Kernels {
		for _, m := range w.a.Mechanisms {
			cs = append(cs, cell(k, 0, 0, m, w.a.Fabric, w.a.Threads))
		}
	}
	return cs
}

// verdict accumulates correctness over every rep of a run.
type verdict struct {
	attempted, failed int
	errs              []string
	first             map[string]string // each cell's digest when first seen
	gold              golden
}

func newVerdict(gold golden) *verdict {
	return &verdict{gold: gold, first: make(map[string]string)}
}

// add folds a rep in: its own failures, then every digest against the first
// rep's and against golden.json. A mismatch is a failure, never a silent
// pass.
func (v *verdict) add(s sample) {
	v.attempted += s.attempted
	v.failed += s.failed
	v.errs = append(v.errs, s.errs...)
	keys := make([]string, 0, len(s.digests))
	for k := range s.digests {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		d, why := s.digests[k], ""
		f, seen := v.first[k]
		g, pinned := v.gold.Cells[k]
		switch {
		case seen && f != d:
			why = "differs from the first rep's " + f
		case pinned && g != d:
			why = "differs from golden " + g
		case !pinned && len(v.gold.Cells) > 0:
			why = "has no golden digest; rerun -write-golden"
		}
		if !seen {
			v.first[k] = d
		}
		if why != "" {
			v.failed++
			v.errs = append(v.errs, fmt.Sprintf("%s: digest %s %s", k, d, why))
		}
	}
}
