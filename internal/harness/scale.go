package harness

import (
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
	type cellIdx struct {
		f    int
		kind barrier.Kind // seqBuild for a baseline
		n    int
	}
	var cells []cellIdx
	for f := range fabrics {
		cells = append(cells, cellIdx{f, seqBuild, 1})
	}
	nseq := len(cells)
	for f := range fabrics {
		for _, kind := range ScaleKinds {
			for _, n := range coreCounts {
				cells = append(cells, cellIdx{f, kind, n})
			}
		}
	}
	keys := make([]string, len(cells))
	for i, cl := range cells {
		keys[i] = fmt.Sprintf("scale/%s/%s/%d", fabrics[cl.f], cl.kind, cl.n)
		if cl.kind == seqBuild {
			keys[i] = fmt.Sprintf("scale/%s/seq", fabrics[cl.f])
		}
	}
	// v2: one record shape for both cell kinds. A v1 journal recorded a
	// baseline as a bare number and a kernel cell's warm time as ParWarm;
	// replayed, they would not decode or would decode to a zero warm time.
	spec := fmt.Sprintf("scale v2 cores=%v k=%d m=%d viterbi=%d%s",
		coreCounts, mb.K, mb.M, opt.viterbiBits(), opt.spec())

	// scaleCell is one journaled measurement: barrier cycles on the
	// latency microbenchmark (none for a baseline) and the kernel's warm
	// cycles.
	type scaleCell struct {
		Barrier uint64
		Warm    uint64
	}
	meas, err := runCells(opt, spec, keys, len(keys), func(i int, c *cellCtx) (res scaleCell, err error) {
		cl := cells[i]
		c.opt.Fabric = fabrics[cl.f] // c is this cell's own: only its machines see it
		// Barrier latency (the Figure 4 microbenchmark on this fabric),
		// then the kernel's warm time for the speedup post-pass.
		if cl.kind != seqBuild {
			if res.Barrier, err = c.runKernel(mb, cl.kind, cl.n); err != nil {
				return res, err
			}
		}
		res.Warm, err = c.measureWarm(lk, cl.kind, cl.n)
		return res, err
	})
	if err != nil {
		return nil, err
	}
	out := make([]ScalePoint, len(cells)-nseq)
	for i, cl := range cells[nseq:] {
		out[i] = ScalePoint{
			Fabric:     fabrics[cl.f].String(),
			Kind:       cl.kind,
			Cores:      cl.n,
			AvgBarrier: float64(meas[nseq+i].Barrier) / float64(mb.Invocations()),
			Speedup:    float64(meas[cl.f].Warm) / float64(meas[nseq+i].Warm),
		}
	}
	return out, nil
}
