package vet

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/barrier"
	"repro/internal/kernels"
)

var update = flag.Bool("update", false, "rewrite testdata/analyze_golden.json from the current analysis")

const analyzeGoldenPath = "testdata/analyze_golden.json"

// benchShapes are the benchmark workloads' simulated cells as vet sees
// them. A cell's fabric does not change its program, so each (kernel, n,
// loops, mechanism, threads) appears once.
var benchShapes = []struct {
	kernel   string
	n, loops int
	kind     string
	threads  int
}{
	{kernel: "livermore2", n: 256, loops: 2, kind: "filter-d", threads: 16},
	{kernel: "livermore2", n: 1024, loops: 4, kind: "filter-d", threads: 16},
	{kernel: "livermore3", n: 1024, loops: 8, kind: "filter-d", threads: 16},
	{kernel: "livermore6", n: 64, loops: 1, kind: "filter-i", threads: 16},
	{kernel: "autcor", n: 1024, loops: 2, kind: "filter-d", threads: 16},
	{kernel: "viterbi", n: 96, loops: 1, kind: "filter-d-pp", threads: 16},
	{kernel: "skewed", n: 96, loops: 4, kind: "filter-d", threads: 16},
	{kernel: "coarse", n: 256, loops: 4, kind: "hw-net", threads: 16},
	{kernel: "livermore2", kind: "sw-central", threads: 16},
	{kernel: "livermore3", kind: "sw-tree", threads: 16},
	{kernel: "autcor", kind: "sw-central", threads: 16},
	{kernel: "viterbi", n: 32, loops: 1, kind: "sw-tree", threads: 16},
	{kernel: "viterbi", n: 24, loops: 1, kind: "sw-central", threads: 16},
	{kernel: "microbench", n: 4, loops: 2, kind: "sw-central", threads: 32},
	{kernel: "microbench", n: 16, loops: 8, kind: "filter-d", threads: 64},
	{kernel: "microbench", n: 16, loops: 8, kind: "filter-i-pp", threads: 64},
	{kernel: "microbench", n: 16, loops: 8, kind: "hw-net", threads: 64},
	{kernel: "lockreduce", n: 256, loops: 4, kind: "filter-d", threads: 16},
	{kernel: "pipeline", n: 96, loops: 2, kind: "filter-d", threads: 16},
}

// goldenPrograms is every program the golden pins, by name: the
// buildAllPrograms builds at 8 and 3 threads, the benchmark's shapes,
// lockreduce with one and two elements per thread, and the misuse corpus
// files.
func goldenPrograms(t *testing.T) map[string]benchProg {
	progs := map[string]benchProg{}
	for _, threads := range []int{8, 3} {
		for name, p := range buildAllPrograms(t, threads) {
			progs[fmt.Sprintf("all/t%d/%s", threads, name)] = p
		}
	}
	for _, s := range benchShapes {
		k, err := kernels.New(s.kernel, s.n, s.loops)
		if err != nil {
			t.Fatalf("kernel %s: %v", s.kernel, err)
		}
		kind, err := barrier.ParseKind(s.kind)
		if err != nil {
			t.Fatal(err)
		}
		prog, ok := buildPar(k, kind, s.threads)
		if !ok {
			t.Fatalf("benchmark shape %+v does not build", s)
		}
		progs[fmt.Sprintf("bench/%s(%d,%d)/%s/t%d", s.kernel, s.n, s.loops, s.kind, s.threads)] = benchProg{prog, s.threads}
	}
	for _, threads := range []int{3, 8, 32, 64} {
		for _, n := range []int{threads, 2 * threads} {
			k := kernels.NewLockReduce(n, 2)
			for _, kind := range allKinds {
				if prog, ok := buildPar(k, kind, threads); ok {
					progs[fmt.Sprintf("lockreduce/n%d/t%d/%s", n, threads, kind)] = benchProg{prog, threads}
				}
			}
		}
	}
	for _, e := range loadCorpus(t) {
		progs["corpus/"+e.name] = benchProg{e.prog, e.threads}
	}
	return progs
}

// encodeGolden renders the reports as one JSON object keyed by program
// name, one diagnostic or certificate per line so a diff names what moved.
func encodeGolden(t *testing.T, reports map[string]*Report) []byte {
	names := make([]string, 0, len(reports))
	for name := range reports {
		names = append(names, name)
	}
	sort.Strings(names)
	line := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	list := func(b *bytes.Buffer, key string, items []string, last bool) {
		fmt.Fprintf(b, "    %q: [", key)
		for i, it := range items {
			sep := ","
			if i == len(items)-1 {
				sep = "\n    "
			}
			fmt.Fprintf(b, "\n      %s%s", it, sep)
		}
		if last {
			b.WriteString("]\n")
		} else {
			b.WriteString("],\n")
		}
	}
	var b bytes.Buffer
	b.WriteString("{\n")
	for i, name := range names {
		r := reports[name]
		var ds, ps []string
		for _, d := range r.Diags {
			ds = append(ds, line(d))
		}
		for _, p := range r.Phases {
			ps = append(ps, line(p))
		}
		fmt.Fprintf(&b, "  %s: {\n", line(name))
		list(&b, "diags", ds, false)
		list(&b, "phases", ps, true)
		if i == len(names)-1 {
			b.WriteString("  }\n")
		} else {
			b.WriteString("  },\n")
		}
	}
	b.WriteString("}\n")
	return b.Bytes()
}

// TestAnalyzeGolden pins Analyze's full output — every diagnostic and
// every phase certificate — over the shipped kernels, the benchmark's
// shapes and the misuse corpus, so an analysis change that moves a
// verdict shows up entry by entry. Regenerate with -update after a
// deliberate change and account for each moved entry.
func TestAnalyzeGolden(t *testing.T) {
	reports := map[string]*Report{}
	for name, p := range goldenPrograms(t) {
		reports[name] = Analyze(p.prog, Options{Threads: p.threads})
	}
	got := encodeGolden(t, reports)
	if *update {
		if err := os.MkdirAll(filepath.Dir(analyzeGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(analyzeGoldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(analyzeGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	var g, w map[string]json.RawMessage
	if err := json.Unmarshal(got, &g); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(want, &w); err != nil {
		t.Fatalf("golden does not parse: %v", err)
	}
	for name := range g {
		if wv, ok := w[name]; !ok {
			t.Errorf("%s: not in the golden", name)
		} else if !bytes.Equal(compactJSON(t, g[name]), compactJSON(t, wv)) {
			t.Errorf("%s moved:\n got %s\nwant %s", name, compactJSON(t, g[name]), compactJSON(t, wv))
		}
	}
	for name := range w {
		if _, ok := g[name]; !ok {
			t.Errorf("%s: in the golden but no longer analyzed", name)
		}
	}
	if !t.Failed() {
		t.Errorf("golden bytes differ but no entry moved (formatting drift); regenerate with -update")
	}
}

func compactJSON(t *testing.T, raw json.RawMessage) []byte {
	var b bytes.Buffer
	if err := json.Compact(&b, raw); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}
