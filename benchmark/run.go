package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"repro/internal/interconnect"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last line of output for one run of one workload.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is a result plus what the line leaves out: the timing summaries
// behind the gated values and the first few failures.
type report struct {
	result
	Timings map[string]timing `json:"timings,omitempty"`
	Errors  []string          `json:"errors,omitempty"`
}

// runOpts are the settings of one run.
type runOpts struct {
	seed     uint64
	seconds  float64 // timed budget
	smoke    bool    // one rep, one set-up, drives once: for the tests
	workDir  string  // where sweep servers keep cache and journal
	traceOut string  // Chrome trace file of the traced pass, "" for none
}

const (
	setups         = 5 // set-ups per run; setup_s is their median
	minReps        = 5
	minRounds      = 3 // sweep, traced pass
	driveRepeats   = 7
	serviceRepeats = 3 // the service drives are whole sweeps
	maxErrorsKept  = 8
)

func finish(v *verdict, values map[string]float64, defs []metricDef, timings map[string]timing) report {
	if v.failed > v.attempted {
		v.failed = v.attempted
	}
	r := report{result: result{Correct: v.failed == 0, Attempted: v.attempted, Failed: v.failed,
		Metrics: make(map[string]metric, len(defs))}, Timings: timings, Errors: v.errs}
	if len(r.Errors) > maxErrorsKept {
		r.Errors = r.Errors[:maxErrorsKept]
	}
	for _, d := range defs {
		r.Metrics[d.Name] = metric{values[d.Name], d.Unit}
	}
	return r
}

// measureEndToEnd is the untraced pass: five segments, each one set-up and
// then reps for a fifth of the budget, so that set-ups, reps and calibration
// samples all see the same stretch of the host's time.
func measureEndToEnd(name string, o runOpts) (report, error) {
	gold, err := loadGolden()
	if err != nil {
		return report{}, err
	}
	v := newVerdict(gold)
	nSetups := setups
	if o.smoke {
		nSetups = 1
	}
	var setupT, walls, sims []time.Duration
	var host hostSpeed
	var cells int
	var alloc uint64
	var first sample
	for i := 0; i < nSetups; i++ {
		t0 := time.Now()
		inst, err := newInstance(name, o.seed, o.workDir)
		if err != nil {
			return report{}, err
		}
		if !o.smoke {
			warm, err := inst.rep(nil)
			if err != nil {
				return report{}, err
			}
			v.add(warm)
		}
		setupT = append(setupT, time.Since(t0))
		host.sampleAfter(setupT[i])

		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		for start, n := time.Now(), 0; n == 0 || (!o.smoke && time.Since(start).Seconds() < o.seconds/setups); n++ {
			t0 := time.Now()
			s, err := inst.rep(nil)
			if err != nil {
				return report{}, err
			}
			host.sampleAfter(time.Since(t0))
			v.add(s)
			if len(walls) == 0 {
				first = s // cells and cycles repeat: the digests pin them
			}
			walls, sims = append(walls, s.wall), append(sims, s.sim)
			cells += s.attempted
		}
		runtime.ReadMemStats(&ms1)
		alloc += ms1.TotalAlloc - ms0.TotalAlloc
	}

	// Gated timings are normalised seconds: the mean rep scaled by what the
	// calibration loop says of the host (calib.go). The timing lines stay raw.
	f := host.factor()
	mean := func(ds []time.Duration) float64 { return f * sum(ds).Seconds() / float64(len(ds)) }
	values := map[string]float64{
		"cells_per_s":       float64(first.cells) / mean(walls),
		"sim_cycles_per_s":  float64(first.cycles) / mean(sims),
		"alloc_mb_per_cell": float64(alloc) / 1e6 / float64(cells),
		"sim_cycles":        float64(first.cycles),
		"setup_s":           f * quantile(setupT, 0.50).Seconds(),
	}
	timings := map[string]timing{"rep": summarize(walls), "simulating": summarize(sims), "setup": summarize(setupT),
		"calibration": summarize(host.samples)}
	return finish(v, values, endToEnd, timings), nil
}

// measureLayers is the traced pass. Untraced and traced reps alternate, so
// that trace.overhead_pct compares like with like, under one CPU profile;
// then the workload's layer drives run.
func measureLayers(name string, o runOpts) (report, error) {
	gold, err := loadGolden()
	if err != nil {
		return report{}, err
	}
	v := newVerdict(gold)
	inst, err := newInstance(name, o.seed, o.workDir)
	if err != nil {
		return report{}, err
	}
	sw, isSweep := inst.(*sweepInstance)
	reps, repeats := minReps, driveRepeats
	if isSweep {
		reps = minRounds
	}
	if o.smoke {
		reps, repeats = 1, 1
	}

	tr := newTracer()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return report{}, fmt.Errorf("starting CPU profile: %w", err)
	}
	// passes are the executions spans and counters are read from: the
	// traced reps, or for sweep the direct-path passes beside them.
	var plain, traced, passes []sample
	cellsRun := 0
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	pair := []*tracer{nil, tr}
	if o.smoke {
		pair = pair[1:] // no untraced twin: trace.overhead_pct reads 0
	}
	for start := time.Now(); len(traced) < reps || (!o.smoke && time.Since(start).Seconds() < o.seconds/2); {
		for _, t := range pair {
			s, err := inst.rep(t)
			if err != nil {
				pprof.StopCPUProfile()
				return report{}, err
			}
			v.add(s)
			cellsRun += s.attempted
			if t == nil {
				plain = append(plain, s)
			} else {
				traced = append(traced, s)
			}
		}
		if isSweep {
			d := runCells("sweep-direct", sw.directCells(), tr)
			v.add(d)
			cellsRun += d.attempted
			passes = append(passes, d)
		}
	}
	runtime.ReadMemStats(&ms1)
	pprof.StopCPUProfile()
	if err := tr.checkNesting(); err != nil {
		return report{}, err
	}
	if !isSweep {
		passes = traced
	}

	out := make(map[string]float64)
	plainT, tracedT := summarize(walls(plain)), summarize(walls(traced))
	if len(plain) > 0 {
		out["trace.overhead_pct"] = 100 * (tracedT.P10/plainT.P10 - 1)
	}
	out["gc.cycles_per_cell"] = float64(ms1.NumGC-ms0.NumGC) / float64(cellsRun)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		out["peak_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports kB
	}

	// Spans: p50 per cell, and shares of the cell span by self time.
	total, selfBy := tr.byName(nil), tr.byName(tr.selfTimes())
	cellSum := float64(sum(total["cell"]))
	for _, n := range spanNames {
		if n == "core.run" {
			out["core.run_ms"] = ms(quantile(total[n], 0.50))
		} else {
			out[n+"_us"] = us(quantile(total[n], 0.50))
		}
		out[shareName(n)] = 100 * float64(sum(selfBy[n])) / cellSum
	}
	out["share.other_pct"] = 100 * float64(sum(selfBy["cell"])) / cellSum

	simCounters(passes, out)
	if name == "parked64" {
		for _, f := range interconnect.Kinds {
			c := cell("microbench", 16, 8, "filter-d", f.String(), 64)
			out["sim.barrier_latency_cyc."+f.String()] = float64(passes[0].cellCycles[c.id()]) / float64(c.n*c.loops)
		}
	}

	samples, err := parseProfile(prof.Bytes())
	if err != nil {
		return report{}, err
	}
	shares, n := hostShares(samples)
	for b, p := range shares {
		out["hostshare."+b+"_pct"] = p
	}
	out["hostshare.samples"] = float64(n)

	switch name {
	case "compute16":
		err = driveCPU(repeats, out)
	case "spin16":
		err = driveStorm(repeats, out)
	case "parked64":
		err = driveFilter(repeats, out)
	case "sweep":
		roundCounters(traced, out)
		spec, fig4Cores := sw.a, []int{4, 8, 16, 32}
		if o.smoke {
			spec.Kernels, fig4Cores = spec.Kernels[:1], fig4Cores[:1]
		}
		err = driveService(sw, spec, fig4Cores, min(repeats, serviceRepeats), out)
	}
	if err != nil {
		return report{}, err
	}
	if o.traceOut != "" {
		if err := tr.writeChrome(o.traceOut); err != nil {
			return report{}, err
		}
	}
	timings := map[string]timing{"rep_untraced": plainT, "rep_traced": tracedT}
	return finish(v, out, perLayer, timings), nil
}

// simCounters derives the sim.* counters and the host cost per simulated
// unit from passes over one cell list. Simulated counts repeat exactly, so
// they are read off the first pass; host time is summed over all of them.
func simCounters(passes []sample, out map[string]float64) {
	one, n := passes[0], float64(len(passes))
	st := one.stats
	ratio := func(num, den uint64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	var host time.Duration
	var allocConstruct, allocRun uint64
	for _, p := range passes {
		host += p.sim
		allocConstruct += p.allocConstruct
		allocRun += p.allocRun
	}
	coreCycles := st["core.cycles_total"]
	out["core.sim_inst_per_s"] = n * float64(one.insts) / host.Seconds()
	out["core.host_ns_per_corecycle"] = float64(host) / n / float64(coreCycles)
	out["core.host_ns_per_cycle"] = float64(host) / n / float64(one.cycles)
	out["core.host_ns_per_inst"] = float64(host) / n / float64(one.insts)
	out["mem.alloc_kb_construct"] = float64(allocConstruct) / 1e3 / n / float64(one.cells)
	out["mem.alloc_kb_run"] = float64(allocRun) / 1e3 / n / float64(one.cells)
	out["sim.ipc"] = ratio(one.insts, coreCycles)
	out["sim.l1d_miss_ratio"] = ratio(st["l1d.misses"], st["l1d.hits"]+st["l1d.misses"])
	out["sim.l1i_miss_ratio"] = ratio(st["l1i.misses"], st["l1i.hits"]+st["l1i.misses"])
	out["sim.l2_miss_ratio"] = ratio(st["l2.misses_to_l3"], st["l2.hits"]+st["l2.misses_to_l3"])
	out["sim.fence_stall_share"] = ratio(st["core.fence_stall_cycles"], coreCycles)
	out["sim.fetch_stall_share"] = ratio(st["core.fetch_miss_stall_cycles"], coreCycles)
	out["sim.translate_hit_ratio"] = ratio(st["translate.hits"], st["translate.hits"]+st["translate.misses"])
	out["sim.sc_failures"] = float64(st["core.sc_failures"])
	out["sim.filter_fills_parked"] = float64(st["filter.fills_parked"])
	out["sim.lock_acquires"] = float64(st["sync.lock.acquires"])
	var grants uint64
	for k, c := range st {
		if strings.HasSuffix(k, ".request_grants") || strings.HasSuffix(k, ".response_grants") {
			grants += c
		}
	}
	out["sim.fabric_grants"] = float64(grants)
}

func walls(ss []sample) []time.Duration {
	ds := make([]time.Duration, len(ss))
	for i, s := range ss {
		ds[i] = s.wall
	}
	return ds
}

func sum(ds []time.Duration) (t time.Duration) {
	for _, d := range ds {
		t += d
	}
	return t
}

// roundCounters reports the sweep phases the end-to-end metrics leave out.
func roundCounters(rounds []sample, out map[string]float64) {
	var replay, overlap, recompute, ttfc []time.Duration
	for _, s := range rounds {
		replay = append(replay, s.round.replay)
		overlap = append(overlap, s.round.overlap)
		recompute = append(recompute, s.round.recompute)
		ttfc = append(ttfc, s.round.ttfc)
	}
	r := rounds[0]
	out["simd.warm_sweep_ms"] = ms(quantile(replay, 0.50))
	out["simd.overlap_sweep_ms"] = ms(quantile(overlap, 0.50))
	out["simd.recompute_cells_per_s"] = float64(r.cells) / quantile(recompute, 0.50).Seconds()
	out["simd.ttfc_ms"] = ms(quantile(ttfc, 0.50))
	out["simd.ttfc_max_ms"] = ms(quantile(ttfc, 1))
	out["simd.cache_hits"] = float64(r.round.cacheHits)
	out["simd.oracle_ok"] = float64(r.round.oracleOK)
}
