package harness

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/kernels"
)

// parallelOptions shrinks the sweep enough for the race detector while still
// exercising real machines across several goroutines.
func parallelOptions(workers int) Options {
	o := tinyOptions()
	o.Fig4Cores = []int{4}
	o.Workers = workers
	return o
}

// TestParallelFig4Deterministic drives real simulations through the pool and
// checks the structured output is identical to the sequential run (this is
// also the target of the -race run in scripts/check.sh).
func TestParallelFig4Deterministic(t *testing.T) {
	seq, err := Fig4(parallelOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := Fig4(parallelOptions(8))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("Fig4 differs across worker counts:\nseq: %+v\npar: %+v", seq, par)
	}
}

// table1TestKernels mirrors Table1Kernels — the same five kernels against
// every barrier mechanism — at unit-test vector lengths, so the four-variant
// sweep below stays tractable on one CPU.
func table1TestKernels() []LoopKernel {
	return []LoopKernel{
		{"livermore2", 2, func(l int) kernels.Kernel { return kernels.NewLivermore2(64, l) }},
		{"livermore3", 2, func(l int) kernels.Kernel { return kernels.NewLivermore3(64, l) }},
		{"livermore6", 2, func(l int) kernels.Kernel { return kernels.NewLivermore6(64, l) }},
		{"autcor", 2, func(l int) kernels.Kernel { return kernels.NewAutcor(128, 4, l) }},
		{"viterbi", 2, func(l int) kernels.Kernel { return kernels.NewViterbi(32, l) }},
	}
}

// TestParallelHarnessDeterminism is the differential determinism test of the
// whole stack: a full Table 1-shaped sweep (every kernel against every
// mechanism) at Workers=1 and Workers=8, with the quiescent-core fast path
// on and off. All four runs must produce byte-identical structured results
// and renderings.
func TestParallelHarnessDeterminism(t *testing.T) {
	type variant struct {
		name       string
		workers    int
		noFastPath bool
	}
	variants := []variant{
		{"w1-fast", 1, false},
		{"w8-fast", 8, false},
		{"w1-slow", 1, true},
		{"w8-slow", 8, true},
	}
	var baseRows []SpeedupRow
	var baseText []byte
	for i, v := range variants {
		opt := tinyOptions()
		opt.Workers = v.workers
		opt.NoFastPath = v.noFastPath
		rows, err := speedupRows(table1TestKernels(), opt)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		var buf bytes.Buffer
		WriteTable1(&buf, rows)
		for _, r := range rows {
			WriteSpeedupRow(&buf, r.Kernel, r)
		}
		if i == 0 {
			baseRows, baseText = rows, buf.Bytes()
			continue
		}
		if !reflect.DeepEqual(rows, baseRows) {
			t.Errorf("%s: structured results differ from %s:\n%+v\nvs\n%+v",
				v.name, variants[0].name, rows, baseRows)
		}
		if !bytes.Equal(buf.Bytes(), baseText) {
			t.Errorf("%s: rendering differs from %s:\n%s\nvs\n%s",
				v.name, variants[0].name, buf.Bytes(), baseText)
		}
	}
}
