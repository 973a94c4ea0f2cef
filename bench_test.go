// Benchmarks that regenerate every table and figure of the paper's
// evaluation section. Each benchmark runs the corresponding experiment and
// reports the headline numbers as custom metrics, so
//
//	go test -bench=. -benchmem
//
// prints a machine-readable version of the paper's results. The quick
// experiment options are used so the full suite completes in minutes; run
// cmd/bench with -full for the paper-sized configuration.
package cmpfb

import (
	"fmt"
	"testing"

	"repro/internal/barrier"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/interconnect"
	"repro/internal/kernels"
	"repro/internal/mem"
)

func benchOptions() harness.Options {
	o := harness.QuickOptions()
	o.Verify = true
	return o
}

// BenchmarkTable1 regenerates Table 1: best software-barrier speedups for
// the five kernels on 16 cores (plus the filter numbers).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.Table1(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.BestSoftware(), r.Kernel+"_swbest_x")
			b.ReportMetric(r.BestFilter(), r.Kernel+"_filterbest_x")
		}
	}
}

// BenchmarkFig4 regenerates Figure 4: average barrier latency for every
// mechanism at 4..64 cores.
func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := harness.Fig4(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			b.ReportMetric(p.AvgCycles, fmt.Sprintf("%s_%dc_cyc", p.Kind, p.Cores))
		}
	}
}

func benchSpeedupRow(b *testing.B, run func(harness.Options) (harness.SpeedupRow, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		row, err := run(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		for _, k := range barrier.Kinds {
			b.ReportMetric(row.Speedup[k], k.String()+"_x")
		}
	}
}

// BenchmarkFig5 regenerates Figure 5: autocorrelation speedups.
func BenchmarkFig5(b *testing.B) { benchSpeedupRow(b, harness.Fig5) }

// BenchmarkFig6 regenerates Figure 6: Viterbi speedups.
func BenchmarkFig6(b *testing.B) { benchSpeedupRow(b, harness.Fig6) }

func benchTimeSeries(b *testing.B, run func(harness.Options) (harness.TimeSeries, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		ts, err := run(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		// Report the parallel-vs-sequential crossover metric per
		// mechanism: the smallest N at which the parallel version wins.
		for _, k := range barrier.Kinds {
			cross := -1.0
			for i, n := range ts.Lengths {
				if ts.Par[k][i] < ts.Seq[i] {
					cross = float64(n)
					break
				}
			}
			b.ReportMetric(cross, k.String()+"_crossN")
		}
	}
}

// BenchmarkFig7 regenerates Figure 7 (Livermore loop 2 time vs N).
func BenchmarkFig7(b *testing.B) { benchTimeSeries(b, harness.Fig7) }

// BenchmarkFig8 regenerates Figure 8 (Livermore loop 3 time vs N).
func BenchmarkFig8(b *testing.B) { benchTimeSeries(b, harness.Fig8) }

// BenchmarkFig10 regenerates Figure 10 (Livermore loop 6 time vs N).
func BenchmarkFig10(b *testing.B) { benchTimeSeries(b, harness.Fig10) }

// --- ablations (design choices called out in DESIGN.md §5) -----------------

// variant is one config of an ablation, reported under metric.
type variant struct {
	metric string
	set    func(*core.Config)
}

// ablate reports kind's barrier latency for n threads under each variant
// of the n-core default config, through the differential driver's machine
// lifecycle.
func ablate(b *testing.B, kind barrier.Kind, n int, vs ...variant) {
	mb := &kernels.Microbench{K: 16, M: 8}
	for i := 0; i < b.N; i++ {
		for _, v := range vs {
			cfg := core.DefaultConfig(n)
			v.set(&cfg)
			r, _ := simulate(&cell{k: mb, kind: kind, cores: n}, knob{set: func(c *core.Config) { *c = cfg }}, nil)
			if r.Err != "" {
				b.Fatal(r.Err)
			}
			b.ReportMetric(float64(r.Cycles)/float64(mb.Invocations()), v.metric)
		}
	}
}

// BenchmarkAblationFilterBW compares the paper's 1-request/cycle filter
// service rate against an idealized 4/cycle rate (release serialization).
func BenchmarkAblationFilterBW(b *testing.B) {
	ablate(b, barrier.KindFilterD, 16,
		variant{"filterbw1_cyc", func(c *core.Config) { c.Mem.FilterBW = 1 }},
		variant{"filterbw4_cyc", func(c *core.Config) { c.Mem.FilterBW = 4 }})
}

// BenchmarkAblationSharedDataBus compares the default per-bank data
// crossbar against a single shared data bus (the >16-core saturation
// discussion of §4.2).
func BenchmarkAblationSharedDataBus(b *testing.B) {
	ablate(b, barrier.KindFilterD, 32,
		variant{"crossbar_cyc", func(c *core.Config) {}},
		variant{"sharedbus_cyc", func(c *core.Config) { c.Mem.SharedDataBus = true }})
}

// BenchmarkAblationMSHR shows that one data MSHR per core suffices for
// filter barriers (§3.2.1), at some cost to the surrounding kernel.
func BenchmarkAblationMSHR(b *testing.B) {
	ablate(b, barrier.KindFilterD, 16,
		variant{"mshr1_cyc", func(c *core.Config) { c.Mem.MSHRs = 1 }},
		variant{"mshr8_cyc", func(c *core.Config) { c.Mem.MSHRs = 8 }})
}

// BenchmarkAblationBusWidth sweeps the data-path width (line transfer
// occupancy), which moves the bus-saturation point.
func BenchmarkAblationBusWidth(b *testing.B) {
	var vs []variant
	for _, width := range []int{8, 16, 32} {
		vs = append(vs, variant{fmt.Sprintf("width%dB_cyc", width), func(c *core.Config) { c.Mem.DataBusBytesPerCycle = width }})
	}
	ablate(b, barrier.KindFilterIPP, 32, vs...)
}

// BenchmarkAblationSMT holds the thread count at 16 and varies how they are
// packed onto physical cores (16x1, 8x2, 4x4 Niagara-style contexts).
// Fewer physical cores means fewer L1s/MSHRs and less bus traffic for the
// same barrier population (§3.2.1).
func BenchmarkAblationSMT(b *testing.B) {
	var vs []variant
	for _, tpc := range []int{1, 2, 4} {
		vs = append(vs, variant{fmt.Sprintf("cores%dx%d_cyc", 16/tpc, tpc), func(c *core.Config) {
			*c = core.DefaultConfig(16 / tpc)
			c.ThreadsPerCore = tpc
		}})
	}
	ablate(b, barrier.KindFilterD, 16, vs...)
}

// BenchmarkFabricThroughput drives a fill storm through each interconnect
// topology at 8 and 32 cores. A first, untimed round streams every line in
// from DRAM (the serialized L3 bottlenecks that round identically on all
// fabrics); the timed round then has every core fetch its neighbour's
// lines, all L2-resident, so the fabric itself is the bottleneck: the bus
// serializes every request through one arbiter while the crossbar and mesh
// keep per-bank parallelism, and the gap widens with the core count.
func BenchmarkFabricThroughput(b *testing.B) {
	const linesPerCore = 64
	for _, cores := range []int{8, 32} {
		for _, fab := range interconnect.Kinds {
			b.Run(fmt.Sprintf("%s_%dc", fab, cores), func(b *testing.B) {
				var drainCycles uint64
				for i := 0; i < b.N; i++ {
					cfg := mem.DefaultConfig(cores)
					cfg.Fabric = fab
					// Deep MSHRs keep the timed round bandwidth-bound on
					// the fabric rather than latency-bound on bank round
					// trips.
					cfg.MSHRs = 32
					s := mem.NewSystem(cfg)
					addr := func(c, l int) uint64 {
						return uint64(0x10_0000 + (l*cores+c)*cfg.LineBytes)
					}
					now := uint64(0)
					// storm issues linesPerCore misses per core (core c
					// requesting owner (c+shift)'s lines) and runs the
					// system until drained, returning the cycles taken.
					storm := func(shift int) uint64 {
						start := now
						left := make([]int, cores)
						for c := range left {
							left[c] = linesPerCore
						}
						pending := cores * linesPerCore
						for ; pending > 0 || !s.Quiet(); now++ {
							for c := 0; c < cores; c++ {
								if left[c] > 0 && s.L1D[c].StartMiss(now, addr((c+shift)%cores, linesPerCore-left[c]), mem.GetS, false) {
									left[c]--
									pending--
								}
							}
							s.Tick(now)
							if now-start > 10_000_000 {
								b.Fatalf("%s/%dc: storm never drained", fab, cores)
							}
						}
						return now - start
					}
					storm(0) // warm: pull every line into the L2 banks
					drainCycles += storm(1)
				}
				b.ReportMetric(float64(drainCycles)/float64(b.N), "drain_cyc")
				b.ReportMetric(float64(cores*linesPerCore)*1000/(float64(drainCycles)/float64(b.N)), "lines/kcyc")
			})
		}
	}
}

// BenchmarkSimThroughput reports the simulator's own speed on a 16-core
// Livermore-2 run: simulated machine-cycles, core-cycles, and committed
// instructions per host second, and the bytes and allocations of one
// machine's construction and run (B/op, allocs/op). This is the
// simulator-performance baseline for future optimisation work.
func BenchmarkSimThroughput(b *testing.B) { benchSimThroughput(b, barrier.KindFilterD, false) }

// BenchmarkSimThroughputNoTranslate is the same run with the basic-block
// translation cache disabled; the gap between the two is the translator's
// contribution to raw simulator speed (the scoreboard tracks it on the
// compute16 workload as cpu.notranslate_ratio: go run ./benchmark).
func BenchmarkSimThroughputNoTranslate(b *testing.B) {
	benchSimThroughput(b, barrier.KindFilterD, true)
}

// BenchmarkSimThroughputSpin is the same cell under the centralized
// software barrier: waiting cores spin on an L1-resident flag, so this is
// the speed of spin-wait simulation, where periodic sleep (DESIGN.md §6)
// carries the load.
func BenchmarkSimThroughputSpin(b *testing.B) { benchSimThroughput(b, barrier.KindSWCentral, false) }

func benchSimThroughput(b *testing.B, kind barrier.Kind, noTranslate bool) {
	const nCores = 16
	cfg := core.DefaultConfig(nCores)
	cfg.NoTranslate = noTranslate
	alloc := barrier.NewAllocator(cfg.Mem)
	gen := barrier.MustNew(kind, nCores, alloc)
	prog, err := kernels.NewLivermore2(256, 2).BuildPar(gen, nCores)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var simCycles, insts uint64
	for i := 0; i < b.N; i++ {
		m := core.NewMachine(cfg)
		if err := barrier.Launch(m, gen, prog, nCores); err != nil {
			b.Fatal(err)
		}
		c, err := m.Run(500_000_000)
		if err != nil {
			b.Fatal(err)
		}
		simCycles += c
		insts += m.TotalCommitted()
	}
	sec := b.Elapsed().Seconds()
	b.ReportMetric(float64(simCycles)/sec, "simcycles/s")
	b.ReportMetric(float64(simCycles*nCores)/sec, "corecycles/s")
	b.ReportMetric(float64(insts)/sec, "inst/s")
}

// BenchmarkOcean regenerates the §4.1 coarse-grained measurement (the
// SPLASH-2 Ocean discussion): barriers are a small share of coarse-grained
// applications, so the filter's whole-program improvement is a few percent.
func BenchmarkOcean(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := harness.CoarseGrain(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Improvement*100, "filter_improvement_pct")
		b.ReportMetric(r.BarrierShareSW*100, "barrier_share_pct")
	}
}
