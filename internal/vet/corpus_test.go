package vet

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/isa"
)

// corpusDir holds the misuse corpus: deliberately broken kernel programs,
// each the smallest realistic instance of a protocol or dataflow mistake.
// The corpus doubles as executable documentation of what each diagnostic
// means and as the regression suite that keeps every check firing.
const corpusDir = "testdata/corpus"

// corpusHeader is the first line of every corpus file: the diagnostic Check
// must raise, the label prefix its Pos must carry, the thread count the
// program runs with, and whether the bug is a concrete data race when it is
// executed with that many SPMD threads (the dynamic happens-before oracle,
// internal/hbcheck, must then catch it too; internal/harness tests that).
const corpusHeader = "# corpus: want=%s at=%s threads=%d dynrace=%t"

// corpusEntry is one corpus file, assembled.
type corpusEntry struct {
	name    string
	want    Code
	wantPos string
	threads int
	dynRace bool
	src     string
	prog    *asm.Program
}

// loadCorpus reads and assembles every corpus file, in name order.
func loadCorpus(tb testing.TB) []corpusEntry {
	tb.Helper()
	paths, err := filepath.Glob(filepath.Join(corpusDir, "*.s"))
	if err != nil || len(paths) == 0 {
		tb.Fatalf("no corpus files in %s (%v)", corpusDir, err)
	}
	var out []corpusEntry
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			tb.Fatal(err)
		}
		e := corpusEntry{name: strings.TrimSuffix(filepath.Base(path), ".s"), src: string(raw)}
		var want string
		if _, err := fmt.Sscanf(e.src, corpusHeader, &want, &e.wantPos, &e.threads, &e.dynRace); err != nil {
			tb.Fatalf("%s: header: %v", path, err)
		}
		e.want = Code(want)
		if e.prog, err = asm.Assemble(e.src, core.TextBase, core.DataBase); err != nil {
			tb.Fatalf("%s: %v", path, err)
		}
		out = append(out, e)
	}
	return out
}

// Barrier scratch registers, matching the generators' convention (s6/s7
// hold the arrival and exit addresses), plus temporaries.
const (
	cB1 = 24            // s6: arrival address
	cB2 = 25            // s7: exit address
	cT1 = isa.RegT0 + 1 // t1
	cT2 = isa.RegT0 + 2 // t2
	cT3 = isa.RegT0 + 3 // t3
)

const cStride = 256 // arrival-slot stride: lineBytes × L2 banks

// dSetup emits the standard D-filter register setup:
// s6 = arrivals + tid·stride, s7 = exits + tid·stride.
func dSetup(b *asm.Builder) {
	b.LI(isa.RegT6, cStride)
	b.MUL(isa.RegT6, isa.RegT6, isa.RegA0)
	b.LI(cB1, core.BarrierRegion)
	b.ADD(cB1, cB1, isa.RegT6)
	b.LI(cB2, core.BarrierRegion+16*cStride)
	b.ADD(cB2, cB2, isa.RegT6)
}

// dBarrier emits the correct D-filter entry/exit arrival sequence.
func dBarrier(b *asm.Builder) {
	b.FENCE()
	b.DCBI(cB1, 0)
	b.LD(isa.RegT6, cB1, 0)
	b.FENCE()
	b.DCBI(cB2, 0)
}
