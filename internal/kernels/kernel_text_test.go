package kernels

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/asm"
	"repro/internal/barrier"
	"repro/internal/core"
)

// The emitted text and data of every registry kernel, sequential and
// parallel under every barrier generator at 1, 4 and 16 threads, at the
// sizes the differential driver, the harness and the benchmark build. The
// golden was captured before any emitter was shared between kernels; a
// rewrite of the emitters must leave it byte-unchanged. After a deliberate
// change of the emitted code, delete the file: the test re-captures it and
// fails once to say so. The golden hashes bytes only; label names are
// pinned elsewhere: testdata/chaos_golden.json quotes labels such as
// .Lacse10 in its deadlock reports, so an emitter must also keep the hints
// and the order of its NewLabel calls (the number is the builder's count).

const kernelTextPath = "testdata/kernel_text.json"

// textSizes are (kernel, n, loops) registry sizes: the kernels' defaults
// (the driver's matrix, the benchmark's spin16 and sweep cells), then the
// driver's special and lock cells, the harness's chaos matrix and quick
// Table 1 / Figure 4 kernels, and the benchmark's compute16 and parked64
// cells.
var textSizes = []struct {
	name     string
	n, loops int
}{
	{"microbench", 8, 8}, {"microbench", 8, 4}, {"microbench", 4, 2}, {"microbench", 16, 8},
	{"viterbi", 32, 2}, {"livermore2", 64, 2}, {"livermore3", 128, 2}, {"livermore6", 64, 2},
	{"lockreduce", 128, 4}, {"pipeline", 48, 2},
	{"livermore3", 96, 2}, {"viterbi", 24, 2}, {"lockreduce", 256, 64},
	{"livermore2", 256, 3}, {"livermore3", 256, 3}, {"livermore6", 256, 2}, {"autcor", 512, 2}, {"viterbi", 64, 2},
	{"autcor", 1024, 2}, {"coarse", 256, 4}, {"livermore2", 1024, 4}, {"livermore2", 256, 2},
	{"livermore3", 1024, 8}, {"livermore6", 64, 1}, {"skewed", 96, 4}, {"viterbi", 96, 1},
	{"lockreduce", 256, 4}, {"pipeline", 96, 2}, {"viterbi", 24, 1}, {"viterbi", 32, 1},
}

// textDigest names each segment by address, length and SHA-256.
func textDigest(p *asm.Program, err error) []string {
	if err != nil {
		return []string{"error: " + err.Error()}
	}
	var out []string
	for _, seg := range p.Segments {
		out = append(out, fmt.Sprintf("%#x+%d %x", seg.Addr, len(seg.Data), sha256.Sum256(seg.Data)))
	}
	return out
}

// directShapes are built by typed constructor at sizes the registry cannot
// reach (autcor's lags are fixed at 8 there, viterbi's bits are n): Table 1's
// autcor and viterbi at both warm-measurement loop counts, and the
// differential driver's autcor.
var directShapes = []struct {
	id string
	k  Kernel
}{
	{"NewAutcor(1024,32,2)", NewAutcor(1024, 32, 2)}, {"NewAutcor(1024,32,4)", NewAutcor(1024, 32, 4)},
	{"NewViterbi(256,2)", NewViterbi(256, 2)}, {"NewViterbi(256,4)", NewViterbi(256, 4)},
	{"NewAutcor(128,4,2)", NewAutcor(128, 4, 2)},
}

func captureKernelText(t *testing.T) map[string][]string {
	got := map[string][]string{}
	addKernel := func(id string, k Kernel) {
		got[id+"/seq"] = textDigest(k.BuildSeq())
		for _, kind := range barrier.Kinds {
			for _, threads := range []int{1, 4, 16} {
				gen, err := barrier.New(kind, threads, barrier.NewAllocator(core.DefaultConfig(threads).Mem))
				var p *asm.Program
				if err == nil {
					p, err = k.BuildPar(gen, threads)
				}
				got[fmt.Sprintf("%s/%s/%d", id, kind, threads)] = textDigest(p, err)
			}
		}
	}
	add := func(name string, n, loops int) {
		k, err := New(name, n, loops)
		if err != nil {
			t.Fatal(err)
		}
		addKernel(fmt.Sprintf("%s(%d,%d)", name, n, loops), k)
	}
	for _, name := range Names() {
		add(name, 0, 0)
	}
	for _, s := range textSizes {
		add(s.name, s.n, s.loops)
	}
	for _, s := range directShapes {
		addKernel(s.id, s.k)
	}
	return got
}

func TestKernelTextGolden(t *testing.T) {
	got := captureKernelText(t)
	data, err := os.ReadFile(kernelTextPath)
	if os.IsNotExist(err) {
		data, err = json.MarshalIndent(got, "", "  ")
		if err == nil {
			err = os.MkdirAll(filepath.Dir(kernelTextPath), 0o755)
		}
		if err == nil {
			err = os.WriteFile(kernelTextPath, append(data, '\n'), 0o644)
		}
		t.Fatalf("%s was missing; captured it from the current emitters (write error: %v)", kernelTextPath, err)
	}
	if err != nil {
		t.Fatal(err)
	}
	var want map[string][]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", kernelTextPath, err)
	}
	for id, w := range want {
		if g, ok := got[id]; !ok {
			t.Errorf("%s: pinned, no longer built", id)
		} else if !reflect.DeepEqual(g, w) {
			t.Errorf("%s differs from the golden:\n got %v\nwant %v", id, g, w)
		}
	}
	for id := range got {
		if _, ok := want[id]; !ok {
			t.Errorf("%s: built, not pinned", id)
		}
	}
}
