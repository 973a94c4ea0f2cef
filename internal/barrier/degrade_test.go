package barrier

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/mem"
)

func TestFallbackEngineDegrades(t *testing.T) {
	pol := FallbackPolicy{Retries: 2, Backoff: 100, MaxCycles: 100_000, Fallback: KindSWCentral}
	var kinds []Kind
	res, err := RunWithFallback(KindFilterD, pol, func(kind Kind, try int, budget uint64) (uint64, error) {
		kinds = append(kinds, kind)
		if kind == KindFilterD {
			return 1000, fmt.Errorf("injected filter fault")
		}
		return 500, nil
	})
	if err != nil {
		t.Fatalf("degraded run failed: %v", err)
	}
	if !res.Completed || !res.Degraded || res.Kind != KindSWCentral {
		t.Fatalf("completed=%v degraded=%v kind=%v", res.Completed, res.Degraded, res.Kind)
	}
	want := []Kind{KindFilterD, KindFilterD, KindFilterD, KindSWCentral}
	if fmt.Sprint(kinds) != fmt.Sprint(want) {
		t.Fatalf("attempt plan %v, want %v", kinds, want)
	}
	// 3 failed filter attempts at 1000 cycles, the 500-cycle fallback, and
	// doubling backoff 100+200+400 before attempts 1..3.
	if res.TotalCycles != 3*1000+500+700 {
		t.Fatalf("total cycles %d, want 4200", res.TotalCycles)
	}
	if res.Cycles != 500 || len(res.Attempts) != 4 {
		t.Fatalf("cycles=%d attempts=%d", res.Cycles, len(res.Attempts))
	}
	for i, a := range res.Attempts {
		if a.Try != i || (i < 3) == (a.Err == "") {
			t.Fatalf("attempt %d malformed: %+v", i, a)
		}
	}
	if !strings.Contains(res.Report(), "degraded to sw-central") {
		t.Fatalf("report missing degradation note:\n%s", res.Report())
	}
}

func TestFallbackEngineStopsOnUnrecoverable(t *testing.T) {
	pol := DefaultFallbackPolicy(100_000)
	calls := 0
	_, err := RunWithFallback(KindFilterD, pol, func(Kind, int, uint64) (uint64, error) {
		calls++
		return 10, fmt.Errorf("%w: result corruption", ErrUnrecoverable)
	})
	if err == nil || calls != 1 {
		t.Fatalf("unrecoverable failure retried (calls=%d, err=%v)", calls, err)
	}
}

// TestFallbackEngineStopsWhenStopped: an attempt stopped from outside (a
// deadline, a torn-down sweep) is neither retried nor degraded, and the
// engine's error still wraps core.ErrStopped so callers can tell a stop
// from a failure of the mechanism.
func TestFallbackEngineStopsWhenStopped(t *testing.T) {
	calls := 0
	_, err := RunWithFallback(KindFilterD, DefaultFallbackPolicy(100_000), func(Kind, int, uint64) (uint64, error) {
		calls++
		return 10, fmt.Errorf("%w (last progress at cycle 10)", core.ErrStopped)
	})
	if !errors.Is(err, core.ErrStopped) || calls != 1 {
		t.Fatalf("stopped attempt: calls=%d, err=%v; want one call and an error wrapping core.ErrStopped", calls, err)
	}
}

func TestFallbackEngineSoftwareKindsRunOnce(t *testing.T) {
	pol := DefaultFallbackPolicy(100_000)
	calls := 0
	_, err := RunWithFallback(KindSWCentral, pol, func(Kind, int, uint64) (uint64, error) {
		calls++
		return 10, fmt.Errorf("software barriers have no degradation path")
	})
	if err == nil || calls != 1 {
		t.Fatalf("software kind was retried (calls=%d, err=%v)", calls, err)
	}
}

func TestFallbackEngineRespectsBudget(t *testing.T) {
	pol := FallbackPolicy{Retries: 5, Backoff: 0, MaxCycles: 1000, Fallback: KindSWCentral}
	res, err := RunWithFallback(KindFilterD, pol, func(kind Kind, try int, budget uint64) (uint64, error) {
		return budget, fmt.Errorf("eats its whole budget and fails")
	})
	if err == nil {
		t.Fatal("exhausted run reported success")
	}
	if res.TotalCycles > pol.MaxCycles {
		t.Fatalf("spent %d cycles over a %d budget", res.TotalCycles, pol.MaxCycles)
	}
}

// TestResilientDegradesOnFilterTimeout runs a real barrier workload whose
// filter hardware is configured to time out instantly: every filter attempt
// faults (the parked fill comes back as an error fill), and the run must
// complete on the software fallback with correct results.
func TestResilientDegradesOnFilterTimeout(t *testing.T) {
	const nthreads = 4
	cfg := core.DefaultConfig(nthreads)
	cfg.FilterTimeout = 1 // every parked fill becomes an error fill

	build := func(gen Generator) (*asm.Program, error) {
		return BuildProgram(gen, func(b *asm.Builder) {
			// Stagger arrivals by ~tid*256 loop iterations: in lockstep no
			// fill ever parks (the last arrival opens the barrier first),
			// and an unparked filter cannot time out.
			b.SLLI(7, 10, 8)
			spin := b.NewLabel("spin")
			enter := b.NewLabel("enter")
			b.Label(spin)
			b.BEQZ(7, enter)
			b.ADDI(7, 7, -1)
			b.BNEZ(7, spin)
			b.Label(enter)
			gen.EmitBarrier(b)
			b.LA(4, "done")
			b.SLLI(6, 10, 3)
			b.ADD(6, 4, 6)
			b.LI(5, 1)
			b.ST(5, 6, 0)
			b.AlignData(64)
			b.DataLabel("done")
			b.Space(64)
		})
	}
	verified := 0
	hooks := AttemptHooks{
		Verify: func(m *core.Machine, prog *asm.Program) error {
			verified++
			done := prog.MustSymbol("done")
			for tid := 0; tid < nthreads; tid++ {
				if got := m.Sys.Mem.ReadUint64(done + uint64(tid*8)); got != 1 {
					return fmt.Errorf("thread %d done=%d, want 1", tid, got)
				}
			}
			return nil
		},
	}
	res, err := RunResilient(cfg, nthreads, KindFilterD, DefaultFallbackPolicy(2_000_000), build, hooks)
	if err != nil {
		t.Fatalf("resilient run failed: %v\n%s", err, res.Report())
	}
	if !res.Degraded || res.Kind != KindSWCentral {
		t.Fatalf("expected degradation to sw-central, got kind=%v degraded=%v", res.Kind, res.Degraded)
	}
	if verified != 1 {
		t.Fatalf("verify ran %d times, want once (on the successful attempt)", verified)
	}
	for _, a := range res.Attempts[:len(res.Attempts)-1] {
		if a.Err == "" {
			t.Fatalf("filter attempt %d succeeded with a 1-cycle timeout", a.Try)
		}
	}
}

// TestResilientDegradesOnCapacitySpill: with a filter-table capacity too
// small for even one barrier, every hardware install overflows. The spill
// must be recoverable — the run degrades to the software fallback and
// completes with correct results — and the report must attribute the
// degradation to capacity, never surface as ErrUnrecoverable.
func TestResilientDegradesOnCapacitySpill(t *testing.T) {
	const nthreads = 4
	cfg := core.DefaultConfig(nthreads)
	cfg.Mem.FilterCap = 1 // a 4-thread filter can never be allocated

	build := func(gen Generator) (*asm.Program, error) {
		return BuildProgram(gen, func(b *asm.Builder) {
			gen.EmitBarrier(b)
			b.LA(4, "done")
			b.SLLI(6, 10, 3)
			b.ADD(6, 4, 6)
			b.LI(5, 1)
			b.ST(5, 6, 0)
			b.AlignData(64)
			b.DataLabel("done")
			b.Space(64)
		})
	}
	hooks := AttemptHooks{
		Verify: func(m *core.Machine, prog *asm.Program) error {
			done := prog.MustSymbol("done")
			for tid := 0; tid < nthreads; tid++ {
				if got := m.Sys.Mem.ReadUint64(done + uint64(tid*8)); got != 1 {
					return fmt.Errorf("thread %d done=%d, want 1", tid, got)
				}
			}
			return nil
		},
	}
	res, err := RunResilient(cfg, nthreads, KindFilterD, DefaultFallbackPolicy(2_000_000), build, hooks)
	if err != nil {
		t.Fatalf("capacity spill must be recoverable: %v\n%s", err, res.Report())
	}
	if !res.Degraded || res.Kind != KindSWCentral {
		t.Fatalf("expected degradation to sw-central, got kind=%v degraded=%v", res.Kind, res.Degraded)
	}
	for _, a := range res.Attempts[:len(res.Attempts)-1] {
		if !strings.Contains(a.Err, "capacity") {
			t.Fatalf("attempt %d error %q not attributed to capacity", a.Try, a.Err)
		}
	}
}

// TestResilientVerifyFailureIsUnrecoverable: corruption detected by the
// verify hook must abort, not retry — a retry would mask it.
func TestResilientVerifyFailureIsUnrecoverable(t *testing.T) {
	const nthreads = 2
	cfg := core.DefaultConfig(nthreads)
	build := func(gen Generator) (*asm.Program, error) {
		return BuildProgram(gen, func(b *asm.Builder) { gen.EmitBarrier(b) })
	}
	calls := 0
	hooks := AttemptHooks{
		Verify: func(*core.Machine, *asm.Program) error {
			calls++
			return fmt.Errorf("checksum mismatch")
		},
	}
	res, err := RunResilient(cfg, nthreads, KindFilterD, DefaultFallbackPolicy(2_000_000), build, hooks)
	if err == nil || calls != 1 {
		t.Fatalf("verify failure retried (calls=%d err=%v)", calls, err)
	}
	if len(res.Attempts) != 1 {
		t.Fatalf("attempts = %d, want 1", len(res.Attempts))
	}
	if !strings.Contains(res.Attempts[0].Err, "result corruption") {
		t.Fatalf("attempt error %q not marked as corruption", res.Attempts[0].Err)
	}
}

// TestResilientBadGeometryIsUnrecoverable: a machine configuration the
// memory system rejects comes back as one unrecoverable attempt naming the
// problem — not a panic out of the constructor, and not a retry (every
// attempt would build the same machine).
func TestResilientBadGeometryIsUnrecoverable(t *testing.T) {
	const nthreads = 2
	cfg := core.DefaultConfig(nthreads)
	cfg.Mem.L1Assoc = 3 // 64kB does not divide into 3 ways
	build := func(gen Generator) (*asm.Program, error) {
		return BuildProgram(gen, func(b *asm.Builder) { gen.EmitBarrier(b) })
	}
	res, err := RunResilient(cfg, nthreads, KindSWCentral, DefaultFallbackPolicy(2_000_000), build, AttemptHooks{})
	if err == nil || len(res.Attempts) != 1 {
		t.Fatalf("attempts = %d, err = %v; want one failed attempt", len(res.Attempts), err)
	}
	if a := res.Attempts[0].Err; !strings.Contains(a, ErrUnrecoverable.Error()) || !strings.Contains(a, mem.ErrConfig.Error()) {
		t.Fatalf("attempt error %q does not mark the bad geometry unrecoverable", a)
	}
}

// TestFallbackEngineZeroBackoff: a zero backoff schedule charges no re-arm
// delay at all — every retry fires immediately, the total cycle accounting
// is exactly the sum of the attempts, and each attempt's budget is an even
// share of what remains (remaining / attempts-left).
func TestFallbackEngineZeroBackoff(t *testing.T) {
	pol := FallbackPolicy{Retries: 2, Backoff: 0, MaxCycles: 4000, Fallback: KindSWCentral}
	wantBudgets := []uint64{1000, 1300, 1900, 3700}
	var gotBudgets []uint64
	res, err := RunWithFallback(KindFilterD, pol, func(kind Kind, try int, budget uint64) (uint64, error) {
		gotBudgets = append(gotBudgets, budget)
		if kind == KindFilterD {
			return 100, fmt.Errorf("injected filter fault")
		}
		return 50, nil
	})
	if err != nil {
		t.Fatalf("zero-backoff run failed: %v", err)
	}
	if fmt.Sprint(gotBudgets) != fmt.Sprint(wantBudgets) {
		t.Fatalf("attempt budgets %v, want %v", gotBudgets, wantBudgets)
	}
	if res.TotalCycles != 3*100+50 {
		t.Fatalf("total cycles %d, want 350 (no backoff may be charged)", res.TotalCycles)
	}
	if !res.Degraded || res.Cycles != 50 || len(res.Attempts) != 4 {
		t.Fatalf("degraded=%v cycles=%d attempts=%d", res.Degraded, res.Cycles, len(res.Attempts))
	}
}

// TestFallbackEngineExhaustionExactlyAtDeadline: when every attempt eats
// its entire budget and fails, the retry plan runs to completion with the
// cycle budget exhausted to exactly zero — never overdrawn, and the final
// fallback attempt still gets its (full remaining) share.
func TestFallbackEngineExhaustionExactlyAtDeadline(t *testing.T) {
	pol := FallbackPolicy{Retries: 2, Backoff: 0, MaxCycles: 1000, Fallback: KindSWCentral}
	res, err := RunWithFallback(KindFilterD, pol, func(kind Kind, try int, budget uint64) (uint64, error) {
		return budget, fmt.Errorf("eats its whole budget and fails")
	})
	if err == nil {
		t.Fatal("exhausted run reported success")
	}
	if len(res.Attempts) != 4 {
		t.Fatalf("got %d attempts, want all 4 (3 filter + fallback)", len(res.Attempts))
	}
	if res.TotalCycles != pol.MaxCycles {
		t.Fatalf("total cycles %d, want exactly the %d budget", res.TotalCycles, pol.MaxCycles)
	}
	// Even shares of the shrinking remainder: 250 each.
	for i, a := range res.Attempts {
		if a.Budget != 250 || a.Cycles != 250 {
			t.Fatalf("attempt %d budget/cycles = %d/%d, want 250/250", i, a.Budget, a.Cycles)
		}
	}
	if !strings.Contains(err.Error(), "failed after 4 attempts") {
		t.Fatalf("error does not report the attempt count: %v", err)
	}
}

// TestFallbackEngineBackoffConsumesRemainingBudget: when the next re-arm
// delay is at least the remaining budget, the engine stops before burning
// cycles it does not have — the boundary case wait == remaining included.
func TestFallbackEngineBackoffConsumesRemainingBudget(t *testing.T) {
	pol := FallbackPolicy{Retries: 1, Backoff: 400, MaxCycles: 600, Fallback: KindSWCentral}
	calls := 0
	res, err := RunWithFallback(KindFilterD, pol, func(kind Kind, try int, budget uint64) (uint64, error) {
		calls++
		return budget, fmt.Errorf("injected filter fault")
	})
	if err == nil {
		t.Fatal("budget-starved run reported success")
	}
	// Attempt 0 gets 600/3 = 200 cycles and fails; the first re-arm wants
	// 400 cycles, which is every cycle left, so no retry may start.
	if calls != 1 || len(res.Attempts) != 1 {
		t.Fatalf("calls=%d attempts=%d, want 1 (backoff >= remaining must stop the plan)", calls, len(res.Attempts))
	}
	if res.TotalCycles != 200 {
		t.Fatalf("total cycles %d, want 200 (an unaffordable backoff is not charged)", res.TotalCycles)
	}
}
