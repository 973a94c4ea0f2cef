package barrier

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
)

// The four filter-barrier mechanisms are one generator parameterised on
// {I,D} x {entry/exit, ping-pong}. The golden below was captured from the
// four hand-written generators that preceded it (PR 14's filteri.go and
// filterd.go): instruction stream, data layout, Describe text and the
// filters Install programs must stay byte-identical to those. After a
// deliberate change of the emitted sequences, delete the file: the test
// re-captures it from the current generator and fails once to say so.

const generatorsGoldenPath = "testdata/filter_generators.json"

type goldenSegment struct {
	Addr   uint64 `json:"addr"`
	Len    int    `json:"len"`
	SHA256 string `json:"sha256"`
}

type goldenGenerator struct {
	Kind     string          `json:"kind"`
	Threads  int             `json:"threads"`
	Describe string          `json:"describe"`
	Entry    uint64          `json:"entry"`
	Segments []goldenSegment `json:"segments"`
	// Filters is what Install programmed: name, thread 0's arrival and exit
	// lines, stride, entries and thread 0's initial state.
	Filters []string `json:"filters"`
}

// captureGenerator builds a two-invocation program on the second L2 bank
// (so the I-cache stub region's bank offset is exercised) and installs it.
func captureGenerator(t *testing.T, kind Kind, nthreads int) goldenGenerator {
	t.Helper()
	cfg := core.DefaultConfig(nthreads)
	gen, err := NewAt(kind, nthreads, NewAllocator(cfg.Mem), 1)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := BuildProgram(gen, func(b *asm.Builder) {
		gen.EmitBarrier(b)
		b.NOP()
		gen.EmitBarrier(b)
	})
	if err != nil {
		t.Fatal(err)
	}
	g := goldenGenerator{Kind: kind.String(), Threads: nthreads, Describe: gen.Describe(), Entry: prog.Entry}
	for _, seg := range prog.Segments {
		g.Segments = append(g.Segments, goldenSegment{
			Addr: seg.Addr, Len: len(seg.Data), SHA256: fmt.Sprintf("%x", sha256.Sum256(seg.Data)),
		})
	}
	m := core.NewMachine(cfg)
	m.Load(prog)
	if err := gen.Install(m, prog); err != nil {
		t.Fatal(err)
	}
	for _, f := range gen.(HardwareBarrier).Filters() {
		g.Filters = append(g.Filters, fmt.Sprintf("%s arrival=%#x exit=%#x stride=%#x threads=%d state=%s",
			f.Name, f.ArrivalAddr(0), f.ExitAddr(0), f.Stride, f.NumThreads, f.State(0)))
	}
	return g
}

func TestFilterGeneratorsGolden(t *testing.T) {
	var got []goldenGenerator
	for _, kind := range FilterKinds {
		for _, n := range []int{4, 16} {
			got = append(got, captureGenerator(t, kind, n))
		}
	}
	data, err := os.ReadFile(generatorsGoldenPath)
	if os.IsNotExist(err) {
		data, err = json.MarshalIndent(got, "", "  ")
		if err == nil {
			err = os.WriteFile(generatorsGoldenPath, append(data, '\n'), 0o644)
		}
		t.Fatalf("%s was missing; captured it from the current generator (write error: %v)", generatorsGoldenPath, err)
	}
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenGenerator
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", generatorsGoldenPath, err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d generator cases, golden has %d", len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s/%d threads differs from the golden:\n got %+v\nwant %+v", got[i].Kind, got[i].Threads, got[i], want[i])
		}
	}
}
