package barrier

// Graceful degradation for the filter barriers: the paper's hardware
// timeout (§3.3.4) turns a starved fill into an error response, and the OS
// registration path already falls back to a software barrier when filter
// slots are exhausted (§3.3.1). This file holds the runtime policy between
// those two: when a filter-barrier run takes a timeout or injected fault,
// re-arm and retry it a bounded number of times (with backoff), then
// degrade the workload to a software barrier instead of giving up — the
// fault surfaces as a report, never as a wedged machine.
//
// Each attempt must run on a fresh machine with a freshly armed filter (the
// harness's chaos attempt boots one through the same lifecycle as every
// other cell): the filter state, directory state and program data of a
// faulted attempt are untrusted, and mid-flight mechanism switching cannot
// be made safe for threads in arbitrary FSM states. The total
// simulated-cycle budget across every attempt is bounded, preserving the
// chaos harness's two-outcome contract (complete, or fail attributably,
// before MaxCycles).

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/core"
)

// ErrUnrecoverable marks an attempt failure the degradation engine must not
// retry: setup errors, and result corruption detected by verification
// (retrying would mask it).
var ErrUnrecoverable = errors.New("barrier: unrecoverable attempt failure")

// FallbackPolicy configures the degradation path.
type FallbackPolicy struct {
	// Retries is how many times the requested filter kind is re-armed
	// after its first failure before degrading.
	Retries int
	// Backoff is the simulated re-arm delay charged before retry k
	// (Backoff << (k-1) cycles), counted against MaxCycles.
	Backoff uint64
	// MaxCycles is the total simulated-cycle budget across all attempts.
	MaxCycles uint64
	// Fallback is the software mechanism used once retries are spent.
	Fallback Kind
}

// DefaultFallbackPolicy returns the standard policy: two re-arms with
// 10k-cycle doubling backoff, then sw-central.
func DefaultFallbackPolicy(maxCycles uint64) FallbackPolicy {
	return FallbackPolicy{Retries: 2, Backoff: 10_000, MaxCycles: maxCycles, Fallback: KindSWCentral}
}

// Attempt records one try of a resilient run.
type Attempt struct {
	Kind   Kind
	Try    int
	Budget uint64 // cycle budget this attempt was given
	Cycles uint64 // cycles it actually consumed
	Err    string // "" on success
}

// FallbackResult is the outcome of a resilient run.
type FallbackResult struct {
	Kind        Kind // mechanism that completed (or was last tried)
	Completed   bool
	Degraded    bool   // completed, but on the fallback mechanism
	Cycles      uint64 // cycles of the successful attempt
	TotalCycles uint64 // every attempt plus backoff
	Attempts    []Attempt
}

// Report renders the attempt history for fault attribution.
func (r FallbackResult) Report() string {
	var b strings.Builder
	for _, a := range r.Attempts {
		status := "ok"
		if a.Err != "" {
			status = a.Err
		}
		fmt.Fprintf(&b, "  attempt %d [%s] %d/%d cycles: %s\n", a.Try, a.Kind, a.Cycles, a.Budget, status)
	}
	if r.Degraded {
		fmt.Fprintf(&b, "  degraded to %s\n", r.Kind)
	}
	return b.String()
}

// RunWithFallback is the degradation engine. It calls run for each attempt
// with the mechanism to use and that attempt's cycle budget; run reports
// the cycles consumed and whether the attempt failed. Filter kinds get
// 1+Retries attempts before one final attempt on pol.Fallback; non-filter
// kinds run once (there is nothing to degrade to). The engine stops early
// on success, on an ErrUnrecoverable failure, when the budget is spent, or
// when an attempt was stopped from outside (core.ErrStopped, which the
// returned error then wraps).
func RunWithFallback(requested Kind, pol FallbackPolicy,
	run func(kind Kind, try int, budget uint64) (uint64, error)) (FallbackResult, error) {
	plan := []Kind{requested}
	if SlotsNeeded(requested) > 0 {
		for i := 0; i < pol.Retries; i++ {
			plan = append(plan, requested)
		}
		plan = append(plan, pol.Fallback)
	}
	res := FallbackResult{Kind: requested}
	remaining := pol.MaxCycles
	for i, kind := range plan {
		if i > 0 && pol.Backoff > 0 {
			wait := pol.Backoff << uint(i-1)
			if wait >= remaining {
				break
			}
			res.TotalCycles += wait
			remaining -= wait
		}
		budget := remaining / uint64(len(plan)-i)
		if budget == 0 {
			break
		}
		cycles, err := run(kind, i, budget)
		if cycles > budget {
			cycles = budget // a driver must not overrun; clamp the accounting
		}
		res.TotalCycles += cycles
		remaining -= cycles
		a := Attempt{Kind: kind, Try: i, Budget: budget, Cycles: cycles}
		if err != nil {
			a.Err = err.Error()
		}
		res.Attempts = append(res.Attempts, a)
		if err == nil {
			res.Completed = true
			res.Kind = kind
			res.Cycles = cycles
			res.Degraded = kind != requested
			return res, nil
		}
		if errors.Is(err, ErrUnrecoverable) {
			return res, fmt.Errorf("barrier: resilient run aborted:\n%s", res.Report())
		}
		if errors.Is(err, core.ErrStopped) {
			// A wall-clock deadline or a torn-down sweep, not a failure of
			// the mechanism: a retry would be stopped the same way, and the
			// caller must be able to tell (a stopped cell is a timeout or a
			// cancellation, never a result to journal as an error).
			return res, fmt.Errorf("barrier: resilient run stopped: %w:\n%s", err, res.Report())
		}
	}
	return res, fmt.Errorf("barrier: resilient run failed after %d attempts:\n%s",
		len(res.Attempts), res.Report())
}
