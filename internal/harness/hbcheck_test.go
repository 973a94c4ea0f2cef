package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/barrier"
	"repro/internal/core"
	"repro/internal/hbcheck"
	"repro/internal/interconnect"
	"repro/internal/kernels"
)

// allKinds is every barrier mechanism, core set plus extras.
func allKinds() []barrier.Kind {
	kinds := append([]barrier.Kind{}, barrier.Kinds...)
	return append(kinds, barrier.ExtraKinds...)
}

// TestHBCheckKernelsRaceFree is the soundness differential: every program
// the static verifier passes (RunPar vets before running) must replay
// race-free under the dynamic happens-before checker. The bus fabric runs
// the full kernel × mechanism matrix; crossbar and mesh run a slice (the
// checker sees the same committed access stream on any fabric — only the
// interleavings differ, which the slice exercises).
func TestHBCheckKernelsRaceFree(t *testing.T) {
	opt := QuickOptions()
	opt.HBCheck = true
	names := kernels.Names()
	if testing.Short() {
		names = []string{"livermore3", "skewed", "viterbi"}
	}
	for _, fab := range []interconnect.Kind{interconnect.KindBus, interconnect.KindCrossbar, interconnect.KindMesh} {
		kns := names
		if fab != interconnect.KindBus {
			if testing.Short() {
				continue
			}
			kns = []string{"livermore3", "skewed"}
		}
		for _, name := range kns {
			for _, kind := range allKinds() {
				fab, name, kind := fab, name, kind
				t.Run(fmt.Sprintf("%s/%s/%s", fab, name, kind), func(t *testing.T) {
					t.Parallel()
					o := opt
					o.Fabric = fab
					k, err := kernels.New(name, 0, 0)
					if err != nil {
						t.Fatal(err)
					}
					memCfg := core.DefaultConfig(8).Mem
					memCfg.Fabric = fab
					if _, err := barrier.New(kind, 8, barrier.NewAllocator(memCfg)); err != nil {
						t.Skipf("mechanism constraint: %v", err)
					}
					if _, err := RunPar(k, kind, 8, o); err != nil {
						t.Fatalf("hbcheck differential failed: %v", err)
					}
				})
			}
		}
	}
}

// corpusProgram is one misuse-corpus file (internal/vet/testdata/corpus),
// assembled, with the thread count and DynRace flag its header names.
type corpusProgram struct {
	name    string
	threads int
	dynRace bool
	prog    *asm.Program
}

// loadCorpus reads every corpus file. The header format is vet's
// corpusHeader; only the thread count and the DynRace flag matter here.
func loadCorpus(t *testing.T) []corpusProgram {
	t.Helper()
	paths, err := filepath.Glob("../vet/testdata/corpus/*.s")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no corpus files (%v)", err)
	}
	var out []corpusProgram
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		c := corpusProgram{name: strings.TrimSuffix(filepath.Base(path), ".s")}
		var want, at string
		if _, err := fmt.Sscanf(string(src), "# corpus: want=%s at=%s threads=%d dynrace=%t", &want, &at, &c.threads, &c.dynRace); err != nil {
			t.Fatalf("%s: header: %v", path, err)
		}
		if c.prog, err = asm.Assemble(string(src), core.TextBase, core.DataBase); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		out = append(out, c)
	}
	return out
}

// TestHBCheckCatchesCorpusRaces closes the loop on the misuse corpus: every
// entry the static verifier flags as a race (DynRace) must also produce a
// happens-before violation when the program actually runs — the static
// claim is confirmed on a concrete schedule, not just believed.
func TestHBCheckCatchesCorpusRaces(t *testing.T) {
	ran := 0
	for _, e := range loadCorpus(t) {
		if !e.dynRace {
			continue
		}
		ran++
		e := e
		t.Run(e.name, func(t *testing.T) {
			m := core.NewMachine(core.DefaultConfig(e.threads))
			hb := hbcheck.Attach(m, hbcheck.Config{KeepGoing: true})
			m.Load(e.prog)
			m.StartSPMD(e.prog.Entry, e.threads)
			if _, err := m.Run(50_000_000); err != nil {
				t.Logf("run ended with: %v", err)
			}
			races := hb.Races()
			if len(races) == 0 {
				t.Fatalf("static verifier flags %s as a race, but no happens-before violation surfaced dynamically", e.name)
			}
			for _, r := range races {
				t.Logf("confirmed: %s", hb.Describe(r))
			}
		})
	}
	if ran < 6 {
		t.Fatalf("only %d DynRace corpus entries; want the >= 6 dynamic-partition entries plus the original", ran)
	}
}

// TestHBCheckStopsRun: without KeepGoing, the first race stops the machine
// at the cycle after it, with a report located by the program's labels
// (the same contract as a sanitizer violation). The checker is attached
// before the program is loaded, as cellCtx.boot attaches it.
func TestHBCheckStopsRun(t *testing.T) {
	var entry *corpusProgram
	corpus := loadCorpus(t)
	for i := range corpus {
		if corpus[i].name == "neighbour-read-race" {
			entry = &corpus[i]
		}
	}
	if entry == nil {
		t.Fatal("corpus entry neighbour-read-race missing")
	}
	m := core.NewMachine(core.DefaultConfig(entry.threads))
	hbcheck.Attach(m, hbcheck.Config{})
	m.Load(entry.prog)
	m.StartSPMD(entry.prog.Entry, entry.threads)
	n, err := m.Run(50_000_000)
	const want = "core: data race: addr 0x1000008: core1 store at pc 0x10018(kern+3) unordered with core0 load at pc 0x10020(kern+4) (cycle 460)"
	if n != 461 || err == nil || err.Error() != want {
		t.Fatalf("Run = (%d, %v), want (461, %s)", n, err, want)
	}
}
