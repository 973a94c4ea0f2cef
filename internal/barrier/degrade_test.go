package barrier

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
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
