package harness

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/barrier"
	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/mem"
)

// tinyOptions makes the experiments small enough for unit tests while
// keeping every code path.
func tinyOptions() Options {
	o := QuickOptions()
	o.Cores = 8
	return o
}

func TestRunSeqAndParAgree(t *testing.T) {
	opt := tinyOptions()
	k := kernels.NewLivermore3(64, 2)
	seq, err := RunSeq(k, opt)
	if err != nil {
		t.Fatal(err)
	}
	if seq == 0 {
		t.Fatal("zero sequential cycles")
	}
	par, err := RunPar(k, barrier.KindFilterD, 8, opt)
	if err != nil {
		t.Fatal(err)
	}
	if par == 0 {
		t.Fatal("zero parallel cycles")
	}
}

func TestMeasureWarmPositiveAndSmaller(t *testing.T) {
	opt := tinyOptions()
	lk := LoopKernel{"livermore3", 2, func(l int) kernels.Kernel {
		return kernels.NewLivermore3(64, l)
	}}
	warm, err := runCell(opt, func(c *cellCtx) (uint64, error) { return c.measureWarm(lk, seqBuild, 1) })
	if err != nil {
		t.Fatal(err)
	}
	cold, err := RunSeq(lk.Make(lk.Loops), opt)
	if err != nil {
		t.Fatal(err)
	}
	if warm == 0 || warm >= cold {
		t.Fatalf("warm time %d not in (0, cold %d)", warm, cold)
	}
}

func TestSpeedupsShape(t *testing.T) {
	opt := tinyOptions()
	lk := LoopKernel{"autcor", 2, func(l int) kernels.Kernel {
		return kernels.NewAutcor(512, 4, l)
	}}
	row, err := Speedups(lk, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(row.Speedup) != len(barrier.Kinds) {
		t.Fatalf("missing mechanisms: %v", row.Speedup)
	}
	// Core paper claims at this kernel's granularity:
	// filters beat software, the dedicated network beats everything.
	if row.BestFilter() <= row.BestSoftware() {
		t.Errorf("filter (%.2f) not faster than software (%.2f)",
			row.BestFilter(), row.BestSoftware())
	}
	if hw := row.Speedup[barrier.KindHWNet]; hw < row.BestFilter()*0.9 {
		t.Errorf("dedicated network (%.2f) unexpectedly slower than filters (%.2f)",
			hw, row.BestFilter())
	}
	if row.BestFilter() <= 1 {
		t.Errorf("filter barrier gives no speedup (%.2f)", row.BestFilter())
	}
}

func TestFig4Shape(t *testing.T) {
	opt := tinyOptions()
	opt.Quick = true
	opt.Fig4Cores = []int{4, 16}
	if !testing.Short() {
		opt.Fig4Cores = []int{4, 16, 32}
	}
	pts, err := Fig4(opt)
	if err != nil {
		t.Fatal(err)
	}
	get := func(kind barrier.Kind, cores int) float64 {
		for _, p := range pts {
			if p.Kind == kind && p.Cores == cores {
				return p.AvgCycles
			}
		}
		t.Fatalf("missing point %v/%d", kind, cores)
		return 0
	}
	for _, cores := range opt.Fig4Cores {
		hw := get(barrier.KindHWNet, cores)
		fi := get(barrier.KindFilterI, cores)
		sw := get(barrier.KindSWCentral, cores)
		if !(hw < fi && fi < sw) {
			t.Errorf("%d cores: ordering hw(%.0f) < filter(%.0f) < software(%.0f) violated",
				cores, hw, fi, sw)
		}
	}
	// The centralized barrier is the top curve at high core counts and
	// loses to the combining tree there (Figure 4).
	last := opt.Fig4Cores[len(opt.Fig4Cores)-1]
	if last >= 32 && get(barrier.KindSWCentral, last) < get(barrier.KindSWTree, last) {
		t.Errorf("centralized not the worst mechanism at %d cores", last)
	}
	// Filters scale: going 4 -> 16 cores costs less than 3x.
	if get(barrier.KindFilterD, 16) > 3*get(barrier.KindFilterD, 4) {
		t.Error("filter barrier latency scales worse than 3x from 4 to 16 cores")
	}
}

func TestWriteFormats(t *testing.T) {
	var buf bytes.Buffer
	WriteFig4(&buf, []LatencyPoint{
		{Kind: barrier.KindSWCentral, Cores: 4, AvgCycles: 123.4},
		{Kind: barrier.KindFilterI, Cores: 4, AvgCycles: 56.7},
	})
	if !strings.Contains(buf.String(), "123.4") || !strings.Contains(buf.String(), "sw-central") {
		t.Fatalf("fig4 output: %q", buf.String())
	}
	buf.Reset()
	row := SpeedupRow{Kernel: "k", SeqCycles: 10, Speedup: map[barrier.Kind]float64{barrier.KindFilterI: 2.5}}
	WriteSpeedupRow(&buf, "t", row)
	if !strings.Contains(buf.String(), "2.50x") {
		t.Fatalf("speedup output: %q", buf.String())
	}
	buf.Reset()
	WriteTable1(&buf, []SpeedupRow{row})
	if !strings.Contains(buf.String(), "Table 1") {
		t.Fatalf("table1 output: %q", buf.String())
	}
	buf.Reset()
	ts := TimeSeries{
		Figure:  "f",
		Lengths: []int{16},
		Seq:     []uint64{100},
		Par:     map[barrier.Kind][]uint64{},
	}
	for _, k := range barrier.Kinds {
		ts.Par[k] = []uint64{50}
	}
	WriteTimeSeries(&buf, ts)
	if !strings.Contains(buf.String(), "100") {
		t.Fatalf("timeseries output: %q", buf.String())
	}
}

func TestVerificationCatchesCorruption(t *testing.T) {
	// Verifying against a mismatched reference must fail: Livermore 6
	// compounds w in place, so a 1-pass run cannot match a 2-pass
	// reference. (Livermore 2 and 3 are idempotent across passes.)
	opt := tinyOptions()
	k := kernels.NewLivermore6(32, 1)
	wrong := kernels.NewLivermore6(32, 2)
	_, err := runCell(opt, func(c *cellCtx) (uint64, error) {
		return c.runMachine("livermore6 seq", 1, func(core.Config) (barrier.Generator, *asm.Program, error) {
			p, err := k.BuildSeq()
			return nil, p, err
		}, func(m *mem.Memory, p *asm.Program) error {
			if err := k.Verify(m, p, 1); err != nil {
				t.Fatalf("correct reference rejected: %v", err)
			}
			if err := wrong.Verify(m, p, 1); err == nil {
				t.Fatal("verification accepted a mismatched reference")
			}
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
}

// microOptions shrink every experiment to seconds for smoke coverage.
func microOptions() Options {
	o := QuickOptions()
	o.Cores = 4
	o.Lengths = []int{16}
	o.Fig4Cores = []int{4}
	return o
}

func TestLivermoreFiguresSmoke(t *testing.T) {
	opt := microOptions()
	for _, fn := range []func(Options) (TimeSeries, error){Fig7, Fig8, Fig10} {
		ts, err := fn(opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(ts.Seq) != 1 || ts.Seq[0] == 0 {
			t.Fatalf("%s: bad sequential series %v", ts.Figure, ts.Seq)
		}
		for _, k := range barrier.Kinds {
			if len(ts.Par[k]) != 1 || ts.Par[k][0] == 0 {
				t.Fatalf("%s/%s: bad parallel series", ts.Figure, k)
			}
		}
		var buf bytes.Buffer
		WriteTimeSeries(&buf, ts)
		if buf.Len() == 0 {
			t.Fatal("empty rendering")
		}
	}
}

func TestFig6Smoke(t *testing.T) {
	opt := microOptions()
	row, err := Fig6(opt)
	if err != nil {
		t.Fatal(err)
	}
	if row.SeqCycles == 0 || len(row.Speedup) != len(barrier.Kinds) {
		t.Fatalf("bad row: %+v", row)
	}
}

func TestExtrasSmoke(t *testing.T) {
	opt := microOptions()
	res, err := Extras(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Latency) != 6 {
		t.Fatalf("latencies: %v", res.Latency)
	}
	for k, v := range res.Latency {
		if v <= 0 {
			t.Fatalf("%v latency %v", k, v)
		}
	}
	var buf bytes.Buffer
	WriteExtras(&buf, res)
	if !strings.Contains(buf.String(), "sw-ticket") {
		t.Fatal("extras rendering missing mechanisms")
	}
}

func TestCoarseGrainSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("coarse-grain phases are sized for realism, not speed")
	}
	opt := microOptions()
	res, err := CoarseGrain(opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.SWCycles == 0 || res.FilterCycles == 0 || res.NetCycles == 0 {
		t.Fatalf("bad result: %+v", res)
	}
	if res.FilterCycles > res.SWCycles {
		t.Errorf("filter total (%d) worse than software (%d) on coarse phases", res.FilterCycles, res.SWCycles)
	}
	var buf bytes.Buffer
	WriteCoarseGrain(&buf, res)
	if !strings.Contains(buf.String(), "improvement") {
		t.Fatal("coarse rendering incomplete")
	}
}
