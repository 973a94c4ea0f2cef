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
// every barrier mechanism — at unit-test vector lengths. The root
// differential driver runs their sequential builds (and the parallel
// kernels' matrix cells) under every knob, NoFastPath included.
func table1TestKernels() []LoopKernel {
	return []LoopKernel{
		{"livermore2", 2, func(l int) kernels.Kernel { return kernels.NewLivermore2(64, l) }},
		{"livermore3", 2, func(l int) kernels.Kernel { return kernels.NewLivermore3(64, l) }},
		{"livermore6", 2, func(l int) kernels.Kernel { return kernels.NewLivermore6(64, l) }},
		{"autcor", 2, func(l int) kernels.Kernel { return kernels.NewAutcor(128, 4, l) }},
		{"viterbi", 2, func(l int) kernels.Kernel { return kernels.NewViterbi(32, l) }},
	}
}

// TestParallelHarnessDeterminism: a full Table 1-shaped sweep (every kernel
// against every mechanism) produces byte-identical structured results and
// renderings at Workers=1 and Workers=8.
func TestParallelHarnessDeterminism(t *testing.T) {
	var texts [2][]byte
	var rows [2][]SpeedupRow
	for i, workers := range []int{1, 8} {
		opt := tinyOptions()
		opt.Workers = workers
		r, err := speedupRows(table1TestKernels(), opt)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var buf bytes.Buffer
		WriteTable1(&buf, r)
		for _, row := range r {
			WriteSpeedupRow(&buf, row.Kernel, row)
		}
		rows[i], texts[i] = r, buf.Bytes()
	}
	if !reflect.DeepEqual(rows[0], rows[1]) {
		t.Errorf("structured results differ across worker counts:\n%+v\nvs\n%+v", rows[0], rows[1])
	}
	if !bytes.Equal(texts[0], texts[1]) {
		t.Errorf("rendering differs across worker counts:\n%s\nvs\n%s", texts[0], texts[1])
	}
}
