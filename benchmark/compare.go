package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// worseBy returns by what share of a the value b is worse, given which
// direction is better; negative when b is better.
func worseBy(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareFiles prints, per workload and end-to-end metric, both values, the
// change and the metric's bound. It returns 1 when B is worse than A past a
// bound or fails a larger share of its operations: the A/A check of two runs
// of one commit, and the gate between a parent and a change.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	var sbs [2]scoreboard
	for i, p := range []string{pathA, pathB} {
		b, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(b, &sbs[i])
		}
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", p, err)
			return 2
		}
	}
	bad := 0
	fmt.Fprintf(stdout, "%-10s %-18s %16s %16s %9s %7s\n", "workload", "metric", "A", "B", "worse by", "bound")
	for _, w := range workloads {
		a, okA := sbs[0].Workloads[w.Name]
		b, okB := sbs[1].Workloads[w.Name]
		if !okA || !okB {
			fmt.Fprintf(stdout, "%-10s missing from one file\n", w.Name)
			bad++
			continue
		}
		for _, d := range endToEnd {
			va, vb := a.EndToEnd.Metrics[d.Name].Value, b.EndToEnd.Metrics[d.Name].Value
			worse := worseBy(d, va, vb)
			verdict := ""
			if worse > d.Bound {
				verdict = "  PAST BOUND"
				bad++
			}
			fmt.Fprintf(stdout, "%-10s %-18s %16.4f %16.4f %8.2f%% %6.1f%%%s\n",
				w.Name, d.Name, va, vb, 100*worse, 100*d.Bound, verdict)
		}
		fa := float64(a.EndToEnd.Failed) / float64(max(a.EndToEnd.Attempted, 1))
		fb := float64(b.EndToEnd.Failed) / float64(max(b.EndToEnd.Attempted, 1))
		if fb > fa {
			fmt.Fprintf(stdout, "%-10s failed share rose from %.4f to %.4f  WORSE\n", w.Name, fa, fb)
			bad++
		}
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "%d comparisons past their bound\n", bad)
		return 1
	}
	return 0
}
