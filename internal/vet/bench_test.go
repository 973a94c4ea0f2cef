package vet

import (
	"fmt"
	"testing"

	"repro/internal/asm"
	"repro/internal/barrier"
	"repro/internal/core"
	"repro/internal/kernels"
)

// benchThreads is the thread count the vet benchmarks analyze for.
const benchThreads = 8

// benchProg is one built program plus the thread count it must be vetted
// for (seq builds vet at 1 thread, like cmd/srvet).
type benchProg struct {
	prog    *asm.Program
	threads int
}

// allKinds is every barrier mechanism, core set plus extras.
var allKinds = append(append([]barrier.Kind{}, barrier.Kinds...), barrier.ExtraKinds...)

// buildPar builds k for one mechanism at the given thread count; ok is
// false when the mechanism or the kernel cannot take that shape.
func buildPar(k kernels.Kernel, kind barrier.Kind, threads int) (*asm.Program, bool) {
	gen, err := barrier.New(kind, threads, barrier.NewAllocator(core.DefaultConfig(threads).Mem))
	if err != nil {
		return nil, false // mechanism constraint (e.g. thread-count shape)
	}
	prog, err := k.BuildPar(gen, threads)
	return prog, err == nil
}

// buildAllPrograms builds every kernel × barrier mechanism pair for the
// given thread count (skipping mechanism-constraint failures, mirroring
// cmd/srvet -all).
func buildAllPrograms(tb testing.TB, threads int) map[string]benchProg {
	tb.Helper()
	progs := map[string]benchProg{}
	for _, name := range kernels.Names() {
		k, err := kernels.New(name, 0, 0)
		if err != nil {
			tb.Fatalf("kernel %s: %v", name, err)
		}
		if prog, err := k.BuildSeq(); err == nil {
			progs[name+"/seq"] = benchProg{prog, 1}
		}
		for _, kind := range allKinds {
			if prog, ok := buildPar(k, kind, threads); ok {
				progs[fmt.Sprintf("%s/%s", name, kind)] = benchProg{prog, threads}
			}
		}
	}
	if len(progs) == 0 {
		tb.Fatal("no programs built")
	}
	return progs
}

func benchmarkVet(b *testing.B, affineOnly bool) {
	progs := buildAllPrograms(b, benchThreads)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for what, p := range progs {
			if ds := Check(p.prog, Options{Threads: p.threads, AffineOnly: affineOnly}); len(ds) != 0 {
				b.Fatalf("diagnostics on shipped kernel %s: %v", what, ds)
			}
		}
	}
}

// BenchmarkVet measures the full widened-domain analysis over every kernel
// × mechanism program (the srvet -all workload).
func BenchmarkVet(b *testing.B) { benchmarkVet(b, false) }

// BenchmarkVetAffineOnly is the v1 exact-affine baseline for the same
// workload, for the <2x cost guard.
func BenchmarkVetAffineOnly(b *testing.B) { benchmarkVet(b, true) }

// TestWidenedDomainCostGuard enforces the cost budget deterministically:
// across all kernels × mechanisms, the widened domain's ascending fixpoint
// work (accepted state changes and work-list visits) must stay under 2x
// the affine-only baseline's, and the narrowing post-pass (decreasing
// iteration plus its reset/re-ascend rounds) must cost less than the
// ascending fixpoint it refines — so the whole analysis is bounded by 2x
// ascending + 1x narrowing < 4x the v1 baseline, each phase on its own
// budget. Counters, not wall clock, so the guard cannot flake under load.
func TestWidenedDomainCostGuard(t *testing.T) {
	progs := buildAllPrograms(t, benchThreads)
	var wSeeds, wVisits, aSeeds, aVisits int
	var nWork, wWork int
	for what, p := range progs {
		_, uw := analyzeUnit(p.prog, Options{Threads: p.threads})
		_, ua := analyzeUnit(p.prog, Options{Threads: p.threads, AffineOnly: true})
		if uw == nil || ua == nil {
			t.Fatalf("%s: no unit", what)
		}
		wSeeds += uw.stats.seeds
		wVisits += uw.stats.visits
		aSeeds += ua.stats.seeds
		aVisits += ua.stats.visits
		nWork += uw.stats.nvisits + uw.stats.nseeds + uw.stats.narrows
		wWork += uw.stats.visits + uw.stats.seeds
	}
	t.Logf("widened: %d seeds %d visits, narrow work %d; affine-only: %d seeds %d visits (%d programs)",
		wSeeds, wVisits, nWork, aSeeds, aVisits, len(progs))
	if wSeeds > 2*aSeeds {
		t.Errorf("widened domain state changes %d exceed 2x affine-only %d", wSeeds, aSeeds)
	}
	if wVisits > 2*aVisits {
		t.Errorf("widened domain work-list visits %d exceed 2x affine-only %d", wVisits, aVisits)
	}
	if nWork > wWork {
		t.Errorf("narrowing work %d exceeds the ascending fixpoint's %d", nWork, wWork)
	}
}
