package harness

import (
	"encoding/json"
	"fmt"

	"repro/internal/barrier"
	"repro/internal/interconnect"
)

// --- fabric scaling: cores x interconnect x mechanism -----------------------

// ScalePoint is one (fabric, mechanism, core count) cell of the scaling
// sweep: the Figure 4 microbenchmark's average barrier latency and the
// Figure 6 style kernel speedup over the same fabric's sequential baseline.
type ScalePoint struct {
	Fabric     string
	Kind       barrier.Kind
	Cores      int
	AvgBarrier float64 // cycles per barrier on the latency microbenchmark
	Speedup    float64 // viterbi warm speedup over 1-core sequential
}

// ScaleKinds is the mechanism subset the scaling sweep measures: the
// paper's centralized software baseline, the D-cache barrier filter, and
// the dedicated-network lower bound. One mechanism per class keeps the
// cores x fabric matrix affordable while still separating traffic that
// converges on one line (sw-central), traffic spread across banks
// (filter-d), and traffic that bypasses the fabric entirely (hw-net).
var ScaleKinds = []barrier.Kind{barrier.KindSWCentral, barrier.KindFilterD, barrier.KindHWNet}

func (o Options) scaleCores() []int {
	if len(o.ScaleCores) > 0 {
		return o.ScaleCores
	}
	return []int{4, 8, 16, 32, 64}
}

// Scale extends the paper's Figure 4/6 axes past its 16-core machine:
// every interconnect fabric x ScaleKinds mechanism x core count. The bus
// serializes all request traffic through one arbiter, so its barrier
// latency inflects upward as cores grow; the crossbar and mesh keep
// per-bank parallelism and overtake it at high core counts — unless the
// mechanism's traffic all lands on one bank (sw-central) or skips the
// memory system (hw-net), which is the point of measuring all three.
// Cells are journaled under "scale/<fabric>/<kind>/<cores>" (sequential
// baselines under "scale/<fabric>/seq") when Options.JournalPath is set.
func Scale(opt Options) ([]ScalePoint, error) {
	coreCounts := opt.scaleCores()
	fabrics := interconnect.Kinds
	mb, lk := opt.latencyBench(), opt.viterbiKernel()

	// One runCells batch covers the whole sweep — the per-fabric
	// sequential speedup baselines (a 1-core machine barely exercises
	// the fabric, but dividing by the same topology's baseline keeps
	// each curve self-consistent) and the (fabric, kind, cores) cells.
	// A single batch means a single journal under one spec header: two
	// batches against the same path would truncate each other's records.
	// Cells record raw cycle counts; speedups divide baselines in a
	// post-pass, so no cell depends on another's completion order.
	type cellIdx struct{ f, k, n int }
	var cells []cellIdx
	for f := range fabrics {
		for ki := range ScaleKinds {
			for n := range coreCounts {
				cells = append(cells, cellIdx{f: f, k: ki, n: n})
			}
		}
	}
	nseq := len(fabrics)
	keys := make([]string, nseq+len(cells))
	for i, f := range fabrics {
		keys[i] = fmt.Sprintf("scale/%s/seq", f)
	}
	for i, cl := range cells {
		keys[nseq+i] = fmt.Sprintf("scale/%s/%s/%d", fabrics[cl.f], ScaleKinds[cl.k], coreCounts[cl.n])
	}
	spec := fmt.Sprintf("scale cores=%v k=%d m=%d viterbi=%d maxcycles=%d sanitize=%v",
		coreCounts, mb.K, mb.M, opt.viterbiBits(), opt.MaxCycles, opt.Sanitize)

	// scaleCell is one journaled measurement: barrier cycles on the
	// latency microbenchmark plus the kernel's warm parallel cycles.
	type scaleCell struct {
		Barrier uint64
		ParWarm uint64
	}
	seq := make([]uint64, nseq)
	meas := make([]scaleCell, len(cells))
	err := runCells(opt, spec, len(keys), keys, func(i int, ctx *cellCtx) (any, error) {
		if i < nseq {
			c, err := ctx.onFabric(fabrics[i]).measureSeqWarm(lk)
			if err != nil {
				return nil, err
			}
			seq[i] = c
			return c, nil
		}
		cl := cells[i-nseq]
		kind, n := ScaleKinds[cl.k], coreCounts[cl.n]
		ctx = ctx.onFabric(fabrics[cl.f])
		// Barrier latency (the Figure 4 microbenchmark on this fabric), then
		// the kernel's warm time for the speedup post-pass.
		cycles, err := ctx.runPar(mb, kind, n)
		if err != nil {
			return nil, err
		}
		parWarm, err := ctx.measureParWarm(lk, kind, n)
		if err != nil {
			return nil, err
		}
		meas[i-nseq] = scaleCell{Barrier: cycles, ParWarm: parWarm}
		return meas[i-nseq], nil
	}, func(i int, data json.RawMessage) error {
		if i < nseq {
			return json.Unmarshal(data, &seq[i])
		}
		return json.Unmarshal(data, &meas[i-nseq])
	})
	if err != nil {
		return nil, err
	}
	out := make([]ScalePoint, len(cells))
	for i, cl := range cells {
		out[i] = ScalePoint{
			Fabric:     fabrics[cl.f].String(),
			Kind:       ScaleKinds[cl.k],
			Cores:      coreCounts[cl.n],
			AvgBarrier: float64(meas[i].Barrier) / float64(mb.Invocations()),
			Speedup:    float64(seq[cl.f]) / float64(meas[i].ParWarm),
		}
	}
	return out, nil
}
