package main

import (
	"strings"

	"repro/internal/interconnect"
)

// metricDef is one row of BENCHMARK.json. Bound is the share of the
// parent's median by which an end-to-end metric may get worse; per-layer
// metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// endToEnd are the gated metrics; every workload reports every one.
// Timings are host time; sim_cycles is simulated time.
var endToEnd = []metricDef{
	// Host: verified cells per wall second through the whole path (sweep:
	// the cold sweep's cells over its wall time), from the mean rep. The
	// three host timings are normalised seconds (calib.go).
	{"cells_per_s", "1/s", "higher", 0.25},
	// Host: simulated cycles per second spent simulating (inside
	// Machine.Run; sweep: the cold sweep's wall time), from the mean rep.
	// Digests pin cycles and instructions per cell, so on the three sim
	// workloads this moves exactly as instructions per second do
	// (core.sim_inst_per_s).
	{"sim_cycles_per_s", "1/s", "higher", 0.25},
	// Host: runtime.MemStats.TotalAlloc delta per cell over the timed reps.
	{"alloc_mb_per_cell", "MB", "lower", 0.02},
	// Simulated: Σ machine.wall_cycles over the cell list (sweep: Σ result
	// cycles of spec A). Deterministic and the same at every seed; any
	// movement is a model change and fails the golden digests as well.
	{"sim_cycles", "cycles", "lower", 0.001},
	// Host: input generation, golden load, server and temp-dir creation and
	// one untimed warm-up rep; median of five set-ups.
	{"setup_s", "s", "lower", 0.25},
}

var spanNames = []string{"barrier.new", "kernels.build", "vet.check", "core.construct", "barrier.launch", "core.run", "kernels.verify", "core.stats"}

// perLayer lists every metric of the traced pass. A workload reports 0 for
// a drive or count that belongs to another workload.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var ds []metricDef
	add := func(name, unit, better string) { ds = append(ds, metricDef{Name: name, Unit: unit, Better: better}) }
	// Spans around the calls into each layer, p50 per cell, and each one's
	// share of the cell span (self time of the cell span is share.other).
	for _, s := range spanNames {
		if s == "core.run" {
			add("core.run_ms", "ms", "lower")
		} else {
			add(s+"_us", "us", "lower")
		}
	}
	for _, s := range spanNames {
		add(shareName(s), "%", "lower")
	}
	add("share.other_pct", "%", "lower")
	add("mem.alloc_kb_construct", "kB", "lower")
	add("mem.alloc_kb_run", "kB", "lower")
	add("gc.cycles_per_cell", "count", "lower")
	add("peak_rss_mb", "MB", "lower")
	add("trace.overhead_pct", "%", "lower")
	// Inside Machine.Run, which spans cannot split.
	add("core.sim_inst_per_s", "1/s", "higher")
	add("core.host_ns_per_corecycle", "ns", "lower")
	add("core.host_ns_per_cycle", "ns", "lower")
	add("core.host_ns_per_inst", "ns", "lower")
	for _, b := range hostBuckets {
		add("hostshare."+b+"_pct", "%", "lower")
	}
	add("hostshare.samples", "count", "higher")
	// Simulated counts; exact, so they move only with the model.
	for _, n := range []string{"sim.ipc", "sim.l1d_miss_ratio", "sim.l1i_miss_ratio", "sim.l2_miss_ratio",
		"sim.fence_stall_share", "sim.fetch_stall_share", "sim.translate_hit_ratio"} {
		add(n, "ratio", "higher")
	}
	for _, n := range []string{"sim.sc_failures", "sim.fabric_grants", "sim.filter_fills_parked", "sim.lock_acquires"} {
		add(n, "count", "lower")
	}
	for _, f := range interconnect.Kinds {
		add("sim.barrier_latency_cyc."+f.String(), "cycles", "lower")
	}
	// Layer drives.
	add("cpu.seq_ns_per_cycle", "ns", "lower")
	add("cpu.notranslate_ratio", "ratio", "higher")
	add("cpu.nofastpath_ratio", "ratio", "higher")
	for _, f := range interconnect.Kinds {
		add("mem.storm_ns_per_txn."+f.String(), "ns", "lower")
	}
	for _, f := range interconnect.Kinds {
		add("mem.storm_drain_cyc."+f.String(), "cycles", "lower")
	}
	add("filter.episode_ns", "ns", "lower")
	add("filter.lock_handoff_ns", "ns", "lower")
	add("simd.warm_sweep_ms", "ms", "lower")
	add("simd.overlap_sweep_ms", "ms", "lower")
	add("simd.recompute_cells_per_s", "1/s", "higher")
	add("simd.ttfc_ms", "ms", "lower")
	add("simd.ttfc_max_ms", "ms", "lower")
	add("simd.cache_hits", "count", "higher")
	add("simd.oracle_ok", "count", "higher")
	add("simd.normalize_ms", "ms", "lower")
	add("simd.runcell_ms", "ms", "lower")
	add("simd.overhead_ms_per_cell", "ms", "lower")
	add("simd.journal_ms_per_cell", "ms", "lower")
	add("harness.fig4_cells_per_s.w1", "1/s", "higher")
	add("harness.fig4_cells_per_s.w2", "1/s", "higher")
	add("harness.scaling_w2", "ratio", "higher")
	return ds
}

// shareName maps a span name to its share metric: "core.run" →
// "share.core_run_pct".
func shareName(span string) string {
	return "share." + strings.ReplaceAll(span, ".", "_") + "_pct"
}
