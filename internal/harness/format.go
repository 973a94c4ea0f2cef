package harness

import (
	"fmt"
	"io"
	"slices"

	"repro/internal/barrier"
)

// WriteFig4 renders Figure 4 as a text table: rows = core counts, columns =
// mechanisms, cells = average cycles per barrier.
func WriteFig4(w io.Writer, pts []LatencyPoint) {
	fmt.Fprintln(w, "Figure 4: average cycles per barrier (lower is better)")
	cc := sortedCores(pts, func(p LatencyPoint) int { return p.Cores })
	fmt.Fprintf(w, "%-8s", "cores")
	for _, k := range barrier.Kinds {
		fmt.Fprintf(w, "%12s", k)
	}
	fmt.Fprintln(w)
	cell := map[[2]int]float64{}
	for _, p := range pts {
		cell[[2]int{p.Cores, int(p.Kind)}] = p.AvgCycles
	}
	for _, c := range cc {
		fmt.Fprintf(w, "%-8d", c)
		for _, k := range barrier.Kinds {
			fmt.Fprintf(w, "%12.1f", cell[[2]int{c, int(k)}])
		}
		fmt.Fprintln(w)
	}
}

// WriteScale renders the fabric-scaling sweep: one block per mechanism,
// rows = core counts, columns = fabrics, with barrier latency and kernel
// speedup side by side.
func WriteScale(w io.Writer, pts []ScalePoint) {
	fmt.Fprintln(w, "Fabric scaling: cycles/barrier (lat) and viterbi speedup (spd) per interconnect")
	cc := sortedCores(pts, func(p ScalePoint) int { return p.Cores })
	var fabs []string
	for _, p := range pts {
		if !slices.Contains(fabs, p.Fabric) {
			fabs = append(fabs, p.Fabric)
		}
	}
	cell := map[string]ScalePoint{}
	for _, p := range pts {
		cell[fmt.Sprintf("%s/%s/%d", p.Fabric, p.Kind, p.Cores)] = p
	}
	for _, k := range ScaleKinds {
		fmt.Fprintf(w, "%s:\n", k)
		fmt.Fprintf(w, "  %-8s", "cores")
		for _, f := range fabs {
			fmt.Fprintf(w, "%14s", f+" lat")
			fmt.Fprintf(w, "%12s", f+" spd")
		}
		fmt.Fprintln(w)
		for _, c := range cc {
			fmt.Fprintf(w, "  %-8d", c)
			for _, f := range fabs {
				p := cell[fmt.Sprintf("%s/%s/%d", f, k, c)]
				fmt.Fprintf(w, "%14.1f", p.AvgBarrier)
				fmt.Fprintf(w, "%11.2fx", p.Speedup)
			}
			fmt.Fprintln(w)
		}
	}
}

// sortedCores returns the distinct core counts of pts, ascending.
func sortedCores[P any](pts []P, cores func(P) int) []int {
	var cc []int
	for _, p := range pts {
		cc = append(cc, cores(p))
	}
	slices.Sort(cc)
	return slices.Compact(cc)
}

// WriteSpeedupRow renders one kernel's Figure 5/6 style bar set.
func WriteSpeedupRow(w io.Writer, title string, r SpeedupRow) {
	fmt.Fprintf(w, "%s: speedup over sequential (%d cycles) on 16 cores\n", title, r.SeqCycles)
	for _, k := range barrier.Kinds {
		fmt.Fprintf(w, "  %-12s %6.2fx\n", k, r.Speedup[k])
	}
}

// WriteTable1 renders Table 1 with the paper's column (best software
// barrier) plus the filter column the paper's §1 narrative references.
func WriteTable1(w io.Writer, rows []SpeedupRow) {
	fmt.Fprintln(w, "Table 1: kernel speedups on a 16-core CMP vs sequential execution")
	fmt.Fprintf(w, "%-24s %16s %16s\n", "Kernel", "Best SW barrier", "Best filter")
	for _, r := range rows {
		fmt.Fprintf(w, "%-24s %15.2fx %15.2fx\n", r.Kernel, r.BestSoftware(), r.BestFilter())
	}
}

// WriteTimeSeries renders a Figure 7/8/10 style table: rows = vector
// lengths, columns = sequential + mechanisms, cells = execution cycles.
func WriteTimeSeries(w io.Writer, ts TimeSeries) {
	fmt.Fprintf(w, "%s: execution time in cycles (lower is better)\n", ts.Figure)
	fmt.Fprintf(w, "%-8s%12s", "N", "sequential")
	for _, k := range barrier.Kinds {
		fmt.Fprintf(w, "%12s", k)
	}
	fmt.Fprintln(w)
	for i, n := range ts.Lengths {
		fmt.Fprintf(w, "%-8d%12d", n, ts.Seq[i])
		for _, k := range barrier.Kinds {
			fmt.Fprintf(w, "%12d", ts.Par[k][i])
		}
		fmt.Fprintln(w)
	}
}

// WriteCoarseGrain renders the §4.1 coarse-grained measurement.
func WriteCoarseGrain(w io.Writer, r CoarseGrainResult) {
	fmt.Fprintf(w, "Coarse-grained barriers (SPLASH-2 Ocean discussion, §4.1): %d phases x %d elems\n", r.Phases, r.WorkElems)
	fmt.Fprintf(w, "  sw-central total   %12d cycles\n", r.SWCycles)
	fmt.Fprintf(w, "  filter-d total     %12d cycles\n", r.FilterCycles)
	fmt.Fprintf(w, "  hw-net total       %12d cycles\n", r.NetCycles)
	fmt.Fprintf(w, "  barrier share (sw) %11.1f%%   (paper: <4%% for Ocean)\n", r.BarrierShareSW*100)
	fmt.Fprintf(w, "  filter improvement %11.1f%%   (paper: 3.5%% for Ocean)\n", r.Improvement*100)
}

// WriteChaos renders the chaos differential matrix. Cell order, and
// therefore output, depends only on the seed — never on worker count.
func WriteChaos(w io.Writer, seed uint64, cells []ChaosCell) {
	fmt.Fprintf(w, "Chaos differential matrix (seed %d): every cell must either match the\n", seed)
	fmt.Fprintln(w, "fault-free result bit-identically or fail with an attributed report.")
	fmt.Fprintf(w, "%-12s %-12s %-14s %-10s %9s %9s %12s\n",
		"kernel", "barrier", "profile", "outcome", "attempts", "injected", "cycles")
	for _, c := range cells {
		fmt.Fprintf(w, "%-12s %-12s %-14s %-10s %9d %9d %12d\n",
			c.Kernel, c.Kind, c.Profile, c.Outcome, c.Attempts, c.Injected, c.Cycles)
	}
	for _, c := range cells {
		if c.Outcome == "identical" || c.Report == "" {
			continue
		}
		fmt.Fprintf(w, "%s/%s/%s:\n  %s\n", c.Kernel, c.Kind, c.Profile, c.Report)
	}
}

// WriteExtras renders the extra software-barrier comparison.
func WriteExtras(w io.Writer, r ExtrasResult) {
	fmt.Fprintf(w, "Software barrier comparison at %d cores (cycles/barrier):\n", r.Cores)
	for _, k := range []barrier.Kind{
		barrier.KindSWCentral, barrier.KindSWTree,
		barrier.KindSWTicket, barrier.KindSWArray,
		barrier.KindHWNet, barrier.KindHWTree,
	} {
		fmt.Fprintf(w, "  %-12s %8.1f\n", k, r.Latency[k])
	}
	fmt.Fprintln(w, "(checks the cited Culler/Singh/Gupta claim — sense-reversal <= ticket —")
	fmt.Fprintln(w, " and positions the T3E-style virtual barrier tree of the related work)")
}
