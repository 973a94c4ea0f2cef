package harness

import (
	"fmt"

	"repro/internal/barrier"
	"repro/internal/kernels"
)

// --- Figure 4: barrier latency --------------------------------------------

// LatencyPoint is one (mechanism, core count) cell of Figure 4.
type LatencyPoint struct {
	Kind      barrier.Kind
	Cores     int
	AvgCycles float64
}

// latencyBench is the Figure 4 microbenchmark at the configured size: the
// paper's 64 consecutive barriers x 64 iterations, or a quick 16 x 8.
func (o Options) latencyBench() *kernels.Microbench {
	if o.Quick {
		return &kernels.Microbench{K: 16, M: 8}
	}
	return kernels.NewMicrobench()
}

// Fig4 measures average cycles per barrier over the paper's loop of
// consecutive barriers for every mechanism and core count. Cells are
// journaled under "fig4/<kind>/<cores>" when Options.JournalPath is set.
func Fig4(opt Options) ([]LatencyPoint, error) {
	coreCounts := []int{4, 8, 16, 32, 64}
	if len(opt.Fig4Cores) > 0 {
		coreCounts = opt.Fig4Cores
	}
	mb := opt.latencyBench()
	keys := make([]string, len(coreCounts)*len(barrier.Kinds))
	for i := range keys {
		keys[i] = fmt.Sprintf("fig4/%s/%d",
			barrier.Kinds[i%len(barrier.Kinds)], coreCounts[i/len(barrier.Kinds)])
	}
	spec := fmt.Sprintf("fig4 cores=%v k=%d m=%d%s", coreCounts, mb.K, mb.M, opt.spec())
	out, err := runCells(opt, spec, keys, len(keys), func(i int, c *cellCtx) (LatencyPoint, error) {
		n := coreCounts[i/len(barrier.Kinds)]
		kind := barrier.Kinds[i%len(barrier.Kinds)]
		cycles, err := c.runKernel(mb, kind, n)
		return LatencyPoint{Kind: kind, Cores: n, AvgCycles: float64(cycles) / float64(mb.Invocations())}, err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// --- kernel construction ---------------------------------------------------

// table1N is the vector length Table 1 uses for the Livermore loops.
const table1N = 256

// LoopKernel builds a kernel with a given repetition count over identical
// data, enabling the warm-cache measurement below.
type LoopKernel struct {
	Name  string
	Loops int // base repetition count
	Make  func(loops int) kernels.Kernel
}

// autcorKernel is the autocorrelation kernel of Table 1 and Figure 5.
func (o Options) autcorKernel() LoopKernel {
	n, lags := 1024, 32 // the paper's lag-32 configuration
	if o.Quick {
		n, lags = 512, 8
	}
	return LoopKernel{"autcor", 2, func(l int) kernels.Kernel { return kernels.NewAutcor(n, lags, l) }}
}

func (o Options) viterbiBits() int {
	if o.Quick {
		return 64
	}
	return 256
}

// viterbiKernel is the Viterbi kernel of Table 1, Figure 6 and the scaling
// sweep.
func (o Options) viterbiKernel() LoopKernel {
	return LoopKernel{"viterbi", 2, func(l int) kernels.Kernel { return kernels.NewViterbi(o.viterbiBits(), l) }}
}

// Table1Kernels returns the five kernels of Table 1 at their Table 1 sizes.
func Table1Kernels(opt Options) []LoopKernel {
	return []LoopKernel{
		{"livermore2", 3, func(l int) kernels.Kernel { return kernels.NewLivermore2(table1N, l) }},
		{"livermore3", 3, func(l int) kernels.Kernel { return kernels.NewLivermore3(table1N, l) }},
		{"livermore6", 2, func(l int) kernels.Kernel { return kernels.NewLivermore6(table1N, l) }},
		opt.autcorKernel(),
		opt.viterbiKernel(),
	}
}

// seqBuild stands for the sequential build in a warm measurement's
// mechanism list: the kernel's sequential program on a one-core machine.
const seqBuild barrier.Kind = -1

// warmKinds is the mechanism list of the speedup tables and the Livermore
// figures: the sequential baseline, then every mechanism of the paper.
var warmKinds = append([]barrier.Kind{seqBuild}, barrier.Kinds...)

// measureWarm returns the execution time of lk.Loops warm repetitions of
// lk's build for kind on n threads (seqBuild: the sequential build), by
// differencing runs at Loops and 2*Loops repetitions (the cold-start
// portions of the two runs are identical, so the difference is pure warm
// execution — the repetition methodology of the Livermore and EEMBC
// harnesses the paper builds on).
func (c *cellCtx) measureWarm(lk LoopKernel, kind barrier.Kind, n int) (uint64, error) {
	t1, err := c.runKernel(lk.Make(lk.Loops), kind, n)
	if err != nil {
		return 0, err
	}
	t2, err := c.runKernel(lk.Make(2*lk.Loops), kind, n)
	if err != nil {
		return 0, err
	}
	if t2 < t1 {
		what := lk.Name
		if kind != seqBuild {
			what += "/" + kind.String()
		}
		return 0, fmt.Errorf("harness: %s: warm time negative (%d < %d)", what, t2, t1)
	}
	return t2 - t1, nil
}

// measureWarmBatch measures the warm time of every kernel in lks for every
// mechanism in kinds at opt.Cores, as one batch of independent cells on the
// Runner, and returns them as a [kernel][mechanism] table. Cells run kernel
// by kernel in kinds order, which fixes which error surfaces first at any
// worker count.
func measureWarmBatch(lks []LoopKernel, kinds []barrier.Kind, opt Options) ([][]uint64, error) {
	nk := len(kinds)
	warm, err := runCells(opt, "", nil, len(lks)*nk, func(i int, c *cellCtx) (uint64, error) {
		return c.measureWarm(lks[i/nk], kinds[i%nk], opt.Cores)
	})
	if err != nil {
		return nil, err
	}
	table := make([][]uint64, len(lks))
	for i := range table {
		table[i] = warm[i*nk : (i+1)*nk]
	}
	return table, nil
}

// --- Table 1 and Figures 5/6: speedups -------------------------------------

// SpeedupRow reports, for one kernel, the speedup of the parallel version
// over sequential for every barrier mechanism, plus the best software
// number Table 1 quotes.
type SpeedupRow struct {
	Kernel    string
	SeqCycles uint64
	Speedup   map[barrier.Kind]float64
}

// BestSoftware returns max(speedup over the software mechanisms).
func (r SpeedupRow) BestSoftware() float64 {
	best := 0.0
	for _, k := range barrier.SoftwareKinds {
		if s := r.Speedup[k]; s > best {
			best = s
		}
	}
	return best
}

// BestFilter returns max(speedup over the barrier-filter mechanisms).
func (r SpeedupRow) BestFilter() float64 {
	best := 0.0
	for _, k := range barrier.FilterKinds {
		if s := r.Speedup[k]; s > best {
			best = s
		}
	}
	return best
}

// speedupRows turns batched warm measurements into one SpeedupRow per
// kernel.
func speedupRows(lks []LoopKernel, opt Options) ([]SpeedupRow, error) {
	warm, err := measureWarmBatch(lks, warmKinds, opt)
	if err != nil {
		return nil, err
	}
	rows := make([]SpeedupRow, len(lks))
	for i, lk := range lks {
		rows[i] = SpeedupRow{
			Kernel:    lk.Make(lk.Loops).Name(),
			SeqCycles: warm[i][0],
			Speedup:   make(map[barrier.Kind]float64, len(barrier.Kinds)),
		}
		for m, kind := range barrier.Kinds {
			rows[i].Speedup[kind] = float64(warm[i][0]) / float64(warm[i][1+m])
		}
	}
	return rows, nil
}

// Speedups measures one kernel against every mechanism at opt.Cores, using
// warm-cache times.
func Speedups(lk LoopKernel, opt Options) (SpeedupRow, error) {
	rows, err := speedupRows([]LoopKernel{lk}, opt)
	if err != nil {
		return SpeedupRow{
			Kernel:  lk.Make(lk.Loops).Name(),
			Speedup: make(map[barrier.Kind]float64),
		}, err
	}
	return rows[0], nil
}

// Table1 reproduces Table 1: best software-barrier speedups for the five
// kernels at 16 cores (plus the filter numbers that motivate the paper's
// "our approach always provides a speedup" claim). All cells of the table
// run as one batch on the Runner.
func Table1(opt Options) ([]SpeedupRow, error) {
	return speedupRows(Table1Kernels(opt), opt)
}

// Fig5 reproduces Figure 5: autocorrelation speedups per mechanism.
func Fig5(opt Options) (SpeedupRow, error) { return Speedups(opt.autcorKernel(), opt) }

// Fig6 reproduces Figure 6: Viterbi speedups per mechanism.
func Fig6(opt Options) (SpeedupRow, error) { return Speedups(opt.viterbiKernel(), opt) }

// --- Figures 7/8/10: Livermore time vs vector length -----------------------

// TimeSeries is one Livermore figure: execution time for the sequential
// version and for each mechanism's parallel version, per vector length.
type TimeSeries struct {
	Figure  string
	Lengths []int
	Seq     []uint64
	Par     map[barrier.Kind][]uint64
}

func (o Options) figureLengths() []int {
	if len(o.Lengths) > 0 {
		return o.Lengths
	}
	if o.Quick {
		return []int{16, 64, 256}
	}
	return []int{16, 32, 64, 128, 256, 512, 1024}
}

// livermoreFigure sweeps one Livermore kernel over vector lengths, using
// warm-cache times (per base-loop-count execution).
func livermoreFigure(name string, baseLoops int, mk func(n, loops int) kernels.Kernel, opt Options) (TimeSeries, error) {
	ts := TimeSeries{
		Figure:  name,
		Lengths: opt.figureLengths(),
		Par:     make(map[barrier.Kind][]uint64),
	}
	lks := make([]LoopKernel, len(ts.Lengths))
	for i, n := range ts.Lengths {
		lks[i] = LoopKernel{name, baseLoops, func(l int) kernels.Kernel { return mk(n, l) }}
	}
	warm, err := measureWarmBatch(lks, warmKinds, opt)
	if err != nil {
		return ts, err
	}
	for _, w := range warm {
		ts.Seq = append(ts.Seq, w[0])
		for m, kind := range barrier.Kinds {
			ts.Par[kind] = append(ts.Par[kind], w[1+m])
		}
	}
	return ts, nil
}

// Fig7 reproduces Figure 7 (Livermore loop 2).
func Fig7(opt Options) (TimeSeries, error) {
	return livermoreFigure("fig7-livermore2", 3, func(n, l int) kernels.Kernel { return kernels.NewLivermore2(n, l) }, opt)
}

// Fig8 reproduces Figure 8 (Livermore loop 3).
func Fig8(opt Options) (TimeSeries, error) {
	return livermoreFigure("fig8-livermore3", 3, func(n, l int) kernels.Kernel { return kernels.NewLivermore3(n, l) }, opt)
}

// Fig10 reproduces Figure 10 (Livermore loop 6).
func Fig10(opt Options) (TimeSeries, error) {
	return livermoreFigure("fig10-livermore6", 2, func(n, l int) kernels.Kernel { return kernels.NewLivermore6(n, l) }, opt)
}

// --- §4.1: coarse-grained barrier usage (SPLASH-2 Ocean discussion) --------

// CoarseGrainResult reports the §4.1 measurement: with long compute phases,
// how much of total execution the barriers account for, and how much a
// filter barrier improves the total.
type CoarseGrainResult struct {
	Phases, WorkElems int
	SWCycles          uint64  // total with the centralized software barrier
	FilterCycles      uint64  // total with the D-cache filter barrier
	NetCycles         uint64  // total with the dedicated network (lower bound)
	Improvement       float64 // (SW - Filter) / SW
	BarrierShareSW    float64 // barrier overhead fraction under software barriers
}

// CoarseGrain reproduces the paper's Ocean observation: barriers account
// for only a few percent of a coarse-grained application, so the filter's
// overall improvement is small (the paper reports 3.5%) even though the
// barrier itself gets much faster.
func CoarseGrain(opt Options) (CoarseGrainResult, error) {
	// Work per phase is sized so barriers are a few percent of the
	// total, the regime the paper measures for Ocean.
	phases, work := 40, 32768
	if opt.Quick {
		phases, work = 15, 8192
	}
	res := CoarseGrainResult{Phases: phases, WorkElems: work}
	mk := func(l int) kernels.Kernel { return kernels.NewCoarseGrain(phases*l, work) }
	lk := LoopKernel{"coarse", 1, mk}
	kinds := []barrier.Kind{barrier.KindSWCentral, barrier.KindFilterD, barrier.KindHWNet}
	warm, err := measureWarmBatch([]LoopKernel{lk}, kinds, opt)
	if err != nil {
		return res, err
	}
	res.SWCycles, res.FilterCycles, res.NetCycles = warm[0][0], warm[0][1], warm[0][2]
	// Signed arithmetic: at very coarse granularity the difference can be
	// negative (barrier choice disappears into timing noise).
	res.Improvement = (float64(res.SWCycles) - float64(res.FilterCycles)) / float64(res.SWCycles)
	res.BarrierShareSW = (float64(res.SWCycles) - float64(res.NetCycles)) / float64(res.SWCycles)
	return res, nil
}

// --- extra software mechanisms (cited related work) -------------------------

// ExtrasResult compares the paper's software barriers against the ticket
// and array-based variants its citation of Culler/Singh/Gupta refers to,
// plus the hardware baselines (flat network and T3E-style virtual tree).
type ExtrasResult struct {
	Cores   int
	Latency map[barrier.Kind]float64 // cycles per barrier
}

// Extras measures the additional software barriers on the Figure 4
// microbenchmark at opt.Cores.
func Extras(opt Options) (ExtrasResult, error) {
	res := ExtrasResult{Cores: opt.Cores, Latency: make(map[barrier.Kind]float64)}
	kinds := []barrier.Kind{
		barrier.KindSWCentral, barrier.KindSWTree,
		barrier.KindSWTicket, barrier.KindSWArray,
		barrier.KindHWNet, barrier.KindHWTree,
	}
	mb := opt.latencyBench()
	lat, err := runCells(opt, "", nil, len(kinds), func(i int, c *cellCtx) (float64, error) {
		cycles, err := c.runKernel(mb, kinds[i], opt.Cores)
		return float64(cycles) / float64(mb.Invocations()), err
	})
	if err != nil {
		return res, err
	}
	for i, kind := range kinds {
		res.Latency[kind] = lat[i]
	}
	return res, nil
}
