package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func checkMetrics(t *testing.T, what string, r report, defs []metricDef) {
	t.Helper()
	if r.Failed != 0 || !r.Correct || r.Attempted < 1 {
		t.Errorf("%s: attempted=%d failed=%d correct=%v: %v", what, r.Attempted, r.Failed, r.Correct, r.Errors)
	}
	if len(r.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics reported, %d defined", what, len(r.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s not emitted", what, d.Name)
		case m.Unit == "" || m.Unit != d.Unit:
			t.Errorf("%s: metric %s has unit %q, want %q", what, d.Name, m.Unit, d.Unit)
		case !nameRE.MatchString(d.Name):
			t.Errorf("%s: metric name %q is outside [A-Za-z0-9_.-]", what, d.Name)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: metric %s = %v", what, d.Name, m.Value)
		}
	}
}

func sumPrefix(r report, prefix, suffix string) (sum float64) {
	for n, m := range r.Metrics {
		if strings.HasPrefix(n, prefix) && strings.HasSuffix(n, suffix) {
			sum += m.Value
		}
	}
	return sum
}

// TestSmoke runs one rep of every workload through both passes: every
// metric is emitted with its unit, goldens match, spans nest (measureLayers
// refuses otherwise), shares sum to 100, and the trace file loads.
func TestSmoke(t *testing.T) {
	if g, err := loadGolden(); err != nil || len(g.Cells) == 0 {
		t.Fatalf("golden.json is empty or unreadable: %v", err)
	}
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			o := runOpts{seed: 1, smoke: true, workDir: t.TempDir(), traceOut: filepath.Join(t.TempDir(), "trace.json")}
			e2e, err := measureEndToEnd(w.Name, o)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, "end-to-end", e2e, endToEnd)
			for _, d := range endToEnd {
				if e2e.Metrics[d.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, e2e.Metrics[d.Name].Value)
				}
			}

			layers, err := measureLayers(w.Name, o)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, "per-layer", layers, perLayer)
			if s := sumPrefix(layers, "share.", "_pct"); math.Abs(s-100) > 1 {
				t.Errorf("share.*_pct sums to %.2f", s)
			}
			if s := sumPrefix(layers, "hostshare.", "_pct"); layers.Metrics["hostshare.samples"].Value > 0 && math.Abs(s-100) > 1 {
				t.Errorf("hostshare.*_pct sums to %.2f", s)
			}
			var tf struct {
				TraceEvents []struct {
					Name string
					Ph   string
					Dur  float64
				}
			}
			b, err := os.ReadFile(o.traceOut)
			if err == nil {
				err = json.Unmarshal(b, &tf)
			}
			if err != nil || len(tf.TraceEvents) == 0 {
				t.Errorf("trace file: %d events, err %v", len(tf.TraceEvents), err)
			}
		})
	}
}

// TestCorruptDigest: a digest that differs from golden.json, or from the
// first rep, is a failed operation.
func TestCorruptDigest(t *testing.T) {
	cells := []simCell{referenceCell}
	s := runCells("compute16", cells, nil)
	if s.failed != 0 || len(s.digests) != 1 {
		t.Fatalf("reference cell: %+v", s.errs)
	}
	key := "compute16/" + referenceCell.id()
	gold, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	v := newVerdict(gold)
	v.add(s)
	if v.failed != 0 {
		t.Fatalf("clean rep failed: %v", v.errs)
	}

	bad := golden{Cells: map[string]string{key: "0000000000000000"}}
	v = newVerdict(bad)
	v.add(s)
	if v.failed != 1 || !strings.Contains(v.errs[0], "golden") {
		t.Errorf("corrupted golden: failed=%d errs=%v", v.failed, v.errs)
	}

	v = newVerdict(gold)
	v.add(s)
	s2 := s
	s2.digests = map[string]string{key: "ffffffffffffffff"}
	v.add(s2)
	if v.failed != 1 || !strings.Contains(v.errs[0], "first rep") {
		t.Errorf("rep-to-rep mismatch: failed=%d errs=%v", v.failed, v.errs)
	}

	v = newVerdict(golden{Cells: map[string]string{"other": "x"}})
	v.add(s)
	if v.failed != 1 {
		t.Errorf("cell missing from golden: failed=%d", v.failed)
	}
}

// Protobuf encoding helpers for the synthetic profile.
func pbVarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }
func pbField(b []byte, field int, v uint64) []byte {
	return pbVarint(pbVarint(b, uint64(field)<<3), v)
}
func pbBytes(b []byte, field int, payload []byte) []byte {
	return append(pbVarint(pbVarint(b, uint64(field)<<3|2), uint64(len(payload))), payload...)
}

// synthProfile builds a gzip'd profile.proto with one function per name and
// one single-line location per function; each stack lists function indices
// leaf first, with count as its first value.
func synthProfile(funcs []string, stacks [][]int, counts []uint64, packed bool) []byte {
	var p []byte
	p = pbBytes(p, 6, nil) // string table entry 0 is ""
	for i, f := range funcs {
		id := uint64(i + 1)
		p = pbBytes(p, 6, []byte(f))
		p = pbBytes(p, 5, pbField(pbField(nil, 1, id), 2, id))
		line := pbField(nil, 1, id)
		p = pbBytes(p, 4, pbBytes(pbField(pbField(nil, 1, id), 3, 0x1000*id), 4, line))
	}
	for i, st := range stacks {
		var s []byte
		if packed {
			var locs []byte
			for _, f := range st {
				locs = pbVarint(locs, uint64(f+1))
			}
			s = pbBytes(s, 1, locs)
			s = pbBytes(s, 2, pbVarint(pbVarint(nil, counts[i]), counts[i]*10_000_000))
		} else {
			for _, f := range st {
				s = pbField(s, 1, uint64(f+1))
			}
			s = pbField(pbField(s, 2, counts[i]), 2, counts[i]*10_000_000)
		}
		p = pbBytes(p, 2, s)
	}
	p = pbField(p, 9, 12345)                                 // time_nanos: a varint field the reader skips
	p = append(pbVarint(p, 15<<3|1), 1, 2, 3, 4, 5, 6, 7, 8) // a fixed64 field it skips
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p)
	zw.Close()
	return gz.Bytes()
}

func TestParseProfile(t *testing.T) {
	funcs := []string{
		"repro/internal/cpu.(*Core).issueStage",        // 0
		"repro/internal/core.(*Machine).Step",          // 1
		"repro/internal/mem.(*Bank).Tick",              // 2
		"runtime.mallocgc",                             // 3
		"runtime.gcBgMarkWorker",                       // 4
		"runtime.gcDrain",                              // 5
		"main.runSimCell",                              // 6
		"repro/internal/isa.Decode",                    // 7
		"repro/internal/simd.RunCell",                  // 8
		"repro/internal/harness.RunChaosCell",          // 9
		"repro/internal/kernels.New",                   // 10
		"repro/internal/interconnect.(*Bus[...]).Tick", // 11
		"net/http.(*conn).serve",                       // 12
	}
	cases := []struct {
		name   string
		stacks [][]int
		counts []uint64
		want   map[string]float64
	}{
		{"innermost repo frame wins", [][]int{{0, 1, 6}, {2, 1, 6}, {1, 6}}, []uint64{6, 3, 1},
			map[string]float64{"cpu": 60, "mem": 30, "core": 10}},
		{"runtime under a repo frame is charged to it", [][]int{{3, 0, 1}, {5, 4}}, []uint64{1, 3},
			map[string]float64{"cpu": 25, "gc": 75}},
		{"isa is cpu, unlisted packages and foreign stacks are other", [][]int{{7, 0}, {10, 6}, {12}, {11, 2}}, []uint64{1, 1, 1, 1},
			map[string]float64{"cpu": 25, "other": 50, "interconnect": 25}},
		{"simd and harness share a bucket", [][]int{{9, 8}, {8}}, []uint64{2, 2},
			map[string]float64{"simd_harness": 100}},
		{"no samples", nil, nil, map[string]float64{}},
	}
	for _, c := range cases {
		for _, packed := range []bool{true, false} {
			samples, err := parseProfile(synthProfile(funcs, c.stacks, c.counts, packed))
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			shares, n := hostShares(samples)
			var wantN uint64
			for _, k := range c.counts {
				wantN += k
			}
			if n != wantN {
				t.Errorf("%s: %d samples, want %d", c.name, n, wantN)
			}
			for _, b := range hostBuckets {
				if math.Abs(shares[b]-c.want[b]) > 1e-9 {
					t.Errorf("%s (packed=%v): %s = %.2f%%, want %.2f%%", c.name, packed, b, shares[b], c.want[b])
				}
			}
		}
	}
	if _, err := parseProfile([]byte("not gzip")); err == nil {
		t.Error("garbage parsed as a profile")
	}
	whole := synthProfile(funcs, [][]int{{0}}, []uint64{1}, true)
	zr, _ := gzip.NewReader(bytes.NewReader(whole))
	raw, _ := io.ReadAll(zr)
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(raw[:len(raw)-5])
	zw.Close()
	if _, err := parseProfile(gz.Bytes()); err == nil {
		t.Error("truncated profile parsed without error")
	}
}

func TestTracerSelfTimes(t *testing.T) {
	tr := newTracer()
	tr.nextExec()
	c := tr.begin("cell")
	a := tr.begin("a")
	tr.end(a)
	b := tr.begin("b")
	tr.end(b)
	tr.end(c)
	if err := tr.checkNesting(); err != nil {
		t.Fatal(err)
	}
	self := tr.selfTimes()
	if got, want := self[c]+self[a]+self[b], tr.spans[c].end-tr.spans[c].start; got != want {
		t.Errorf("self times sum to %v, cell span is %v", got, want)
	}
	tr.spans[a].end = tr.spans[c].end + 1
	if tr.checkNesting() == nil {
		t.Error("a span outliving its parent passed the nesting check")
	}
}

func TestCompare(t *testing.T) {
	mk := func(cps float64, failed int) scoreboard {
		sb := scoreboard{Workloads: map[string]workloadReport{}}
		for _, w := range workloads {
			r := report{result: result{Attempted: 100, Failed: failed, Metrics: map[string]metric{}}}
			for _, d := range endToEnd {
				r.Metrics[d.Name] = metric{100, d.Unit}
			}
			r.Metrics["cells_per_s"] = metric{cps, "1/s"}
			sb.Workloads[w.Name] = workloadReport{EndToEnd: r}
		}
		return sb
	}
	write := func(name string, sb scoreboard) string {
		p := filepath.Join(t.TempDir(), name)
		b, _ := json.Marshal(sb)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("a.json", mk(100, 0))
	bound := endToEnd[0].Bound // of cells_per_s, the metric mk varies
	for _, c := range []struct {
		name string
		sb   scoreboard
		want int
	}{
		{"same", mk(100, 0), 0},
		{"within bound", mk(100*(1-bound/2), 0), 0},
		{"better", mk(150, 0), 0},
		{"past bound", mk(100*(1-bound*1.5), 0), 1},
		{"more failures", mk(100, 1), 1},
	} {
		var out bytes.Buffer
		if got := compareFiles(base, write("b.json", c.sb), &out, &out); got != c.want {
			t.Errorf("%s: exit %d, want %d\n%s", c.name, got, c.want, out.String())
		}
	}
	if got := compareFiles(base, filepath.Join(t.TempDir(), "absent.json"), io.Discard, io.Discard); got != 2 {
		t.Errorf("missing file: exit %d, want 2", got)
	}
}

// TestManifest keeps BENCHMARK.json and the tables in this package in step.
func TestManifest(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef                           `json:"end_to_end"`
		PerLayer   []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.EndToEnd, endToEnd) {
		t.Errorf("end_to_end: manifest has %+v, package has %+v", m.EndToEnd, endToEnd)
	}
	if len(m.Workloads) != len(workloads) || len(m.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("manifest has %d workloads and %d per-layer metrics, package %d and %d",
			len(m.Workloads), len(m.PerLayer), len(workloads), len(perLayer))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.Name || m.Workloads[i].Why != w.Why || len(w.Why) > 200 {
			t.Errorf("workload %d: manifest %+v, package %+v", i, m.Workloads[i], w)
		}
	}
	for i, d := range perLayer {
		if got := m.PerLayer[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per_layer %d: manifest %+v, package %+v", i, got, d)
		}
	}
	if len(m.Paths) != 1 || m.Paths[0] != "benchmark" || m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", m.Paths, m.RunSeconds)
	}
}
