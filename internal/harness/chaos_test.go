package harness

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/barrier"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/kernels"
	"repro/internal/mem"
)

// doneKernel is one barrier and a done flag per thread. Arrivals are
// staggered by ~tid*256 loop iterations: in lockstep no fill ever parks
// (the last arrival opens the barrier first), and an unparked filter cannot
// time out. Verify counts its calls and fails with verifyErr when set.
type doneKernel struct {
	verifyErr error
	verified  int
}

func (k *doneKernel) Name() string                    { return "done" }
func (k *doneKernel) BuildSeq() (*asm.Program, error) { return nil, errors.New("no sequential build") }

func (k *doneKernel) BuildPar(gen barrier.Generator, nthreads int) (*asm.Program, error) {
	return barrier.BuildProgram(gen, func(b *asm.Builder) {
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

func (k *doneKernel) Verify(m *mem.Memory, p *asm.Program, nthreads int) error {
	k.verified++
	if k.verifyErr != nil {
		return k.verifyErr
	}
	done := p.MustSymbol("done")
	for tid := 0; tid < nthreads; tid++ {
		if got := m.ReadUint64(done + uint64(tid*8)); got != 1 {
			return fmt.Errorf("thread %d done=%d, want 1", tid, got)
		}
	}
	return nil
}

// TestChaosAttemptDegradation drives the chaos attempt path (a fault-free
// profile) through the degradation policy. A filter that cannot work — a
// 1-cycle timeout turns every parked fill into an error fill, a one-entry
// table refuses the install — degrades to sw-central with verified results
// and every failed attempt attributed. A verify failure or a machine the
// memory system rejects is one unrecoverable attempt: a retry would mask
// corruption, and would build the same bad machine.
func TestChaosAttemptDegradation(t *testing.T) {
	cases := []struct {
		name         string
		threads      int
		kind         barrier.Kind
		tweak        func(*core.Config)
		verifyErr    error
		wantDegraded bool // else the cell fails after wantAttempts
		wantAttempts int
		wantVerified int
		failedErr    []string // every failed attempt's line (or the cell's error) contains these
	}{
		{"timeout-degrades", 4, barrier.KindFilterD, func(c *core.Config) { c.FilterTimeout = 1 },
			nil, true, 4, 1, nil},
		{"capacity-spill-degrades", 4, barrier.KindFilterD, func(c *core.Config) { c.Mem.FilterCap = 1 },
			nil, true, 4, 1, []string{"capacity"}},
		{"verify-failure-unrecoverable", 2, barrier.KindFilterD, nil,
			errors.New("checksum mismatch"), false, 1, 1, []string{"silent data corruption", "result corruption: checksum mismatch"}},
		{"bad-geometry-unrecoverable", 2, barrier.KindSWCentral, func(c *core.Config) { c.Mem.L1Assoc = 3 }, // 64kB does not divide into 3 ways
			nil, false, 1, 0, []string{"resilient run aborted", "unrecoverable attempt failure", mem.ErrConfig.Error()}},
	}
	none, _ := faults.ProfileByName("none")
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opt := tinyOptions()
			opt.MaxCycles = 2_000_000
			k := &doneKernel{verifyErr: tc.verifyErr}
			cell, err := runCell(opt, func(c *cellCtx) (ChaosCell, error) {
				cfg := c.Config(tc.threads)
				if tc.tweak != nil {
					tc.tweak(&cfg)
				}
				cell := ChaosCell{Kernel: k.Name(), Kind: tc.kind, Profile: none.Name}
				a := chaosAttempt{c: c, cfg: cfg, k: k, p: none, seed: 1, nthreads: tc.threads, what: "chaos done"}
				err := runChaosCell(&cell, none, opt.MaxCycles, a.run)
				return cell, err
			})
			if tc.wantDegraded != (err == nil) {
				t.Fatalf("err = %v, want degraded completion %v\n%s", err, tc.wantDegraded, cell.Report)
			}
			if cell.Attempts != tc.wantAttempts || k.verified != tc.wantVerified {
				t.Fatalf("attempts=%d verified=%d, want %d and %d", cell.Attempts, k.verified, tc.wantAttempts, tc.wantVerified)
			}
			if !tc.wantDegraded {
				for _, want := range tc.failedErr {
					if !strings.Contains(err.Error(), want) {
						t.Errorf("error %q does not contain %q", err, want)
					}
				}
				return
			}
			if cell.Outcome != "degraded" || !strings.Contains(cell.Report, "  degraded to sw-central\n") {
				t.Fatalf("outcome %q, want degradation to sw-central:\n%s", cell.Outcome, cell.Report)
			}
			lines := strings.Split(cell.Report, "\n")[:tc.wantAttempts]
			for _, line := range lines[:len(lines)-1] {
				if !strings.HasPrefix(line, "  attempt ") || strings.HasSuffix(line, ": ok") {
					t.Errorf("not a failed attempt: %q", line)
				}
				for _, want := range tc.failedErr {
					if !strings.Contains(line, want) {
						t.Errorf("attempt %q does not contain %q", line, want)
					}
				}
			}
		})
	}
}

// TestChaosCellFaultFreeIgnoresSeed: a profile that injects nothing never
// reads the seed (chaosAttempt.run consults it only under Active and
// WantsPreemption, and preempting makes a profile active), so its cells at
// two seeds are equal; simd simulates such cells once per sweep on the
// strength of this. An active profile at the same two seeds differs, so
// the comparison can see a seed.
func TestChaosCellFaultFreeIgnoresSeed(t *testing.T) {
	opt := tinyOptions()
	opt.MaxCycles = 2_000_000
	cells := func(profile string, kind barrier.Kind) [2]ChaosCell {
		t.Helper()
		p, ok := faults.ProfileByName(profile)
		if !ok {
			t.Fatalf("no profile %q", profile)
		}
		var out [2]ChaosCell
		for s, seed := range []uint64{1, 2} {
			c, err := RunChaosCell(&kernels.Microbench{K: 4, M: 2}, kind, p, seed, 4, opt)
			if err != nil {
				t.Fatalf("%s/%s seed %d: %v", kind, profile, seed, err)
			}
			out[s] = c
		}
		return out
	}
	for _, kind := range []barrier.Kind{barrier.KindFilterD, barrier.KindSWCentral, barrier.KindHWNet} {
		if c := cells("none", kind); c[0] != c[1] {
			t.Errorf("%s fault-free cells differ across seeds:\n%+v\n%+v", kind, c[0], c[1])
		}
	}
	if c := cells("spurious-fill", barrier.KindFilterD); c[0] == c[1] {
		t.Errorf("spurious-fill cells equal across seeds, the comparison cannot see a seed: %+v", c[0])
	}
}

// policyCell runs the degradation policy on a cell of kind under profile
// with fake attempts: each returns its cycles and failure, injects nothing.
func policyCell(t *testing.T, kind barrier.Kind, profile string, maxCycles uint64,
	attempt func(kind barrier.Kind, try int, budget uint64) (uint64, error)) (ChaosCell, error) {
	t.Helper()
	p, ok := faults.ProfileByName(profile)
	if !ok {
		t.Fatalf("no profile %q", profile)
	}
	cell := ChaosCell{Kernel: "fake", Kind: kind, Profile: p.Name}
	err := runChaosCell(&cell, p, maxCycles, func(kind barrier.Kind, try int, budget uint64) (uint64, uint64, string, error) {
		cycles, err := attempt(kind, try, budget)
		return cycles, 0, "", err
	})
	return cell, err
}

// TestChaosPolicyDegrades: a filter that keeps failing is re-armed twice
// with 10k/20k/40k-cycle backoff charged before attempts 1..3, then runs on
// sw-central. The report lists every attempt, the degradation and the
// attribution of each attempt that ran an injector, numbered among those.
func TestChaosPolicyDegrades(t *testing.T) {
	var kinds []barrier.Kind
	cell := ChaosCell{Kernel: "fake", Kind: barrier.KindFilterD, Profile: "bus-delay"}
	p, _ := faults.ProfileByName("bus-delay")
	err := runChaosCell(&cell, p, 1_000_000, func(kind barrier.Kind, try int, budget uint64) (uint64, uint64, string, error) {
		kinds = append(kinds, kind)
		attr := fmt.Sprintf("try %d", try)
		switch {
		case try == 0:
			return 0, 0, "", errors.New("refused before any injector ran")
		case kind == barrier.KindFilterD:
			return 1000, 2, attr, errors.New("injected filter fault")
		}
		return 500, 1, attr, nil
	})
	if err != nil {
		t.Fatalf("degraded cell failed: %v", err)
	}
	want := []barrier.Kind{barrier.KindFilterD, barrier.KindFilterD, barrier.KindFilterD, barrier.KindSWCentral}
	if fmt.Sprint(kinds) != fmt.Sprint(want) {
		t.Fatalf("attempt plan %v, want %v", kinds, want)
	}
	// Two failed filter attempts at 1000 cycles, the 500-cycle fallback,
	// and backoff 10k+20k+40k.
	if cell.Outcome != "degraded" || cell.Attempts != 4 || cell.Cycles != 2*1000+500+70_000 || cell.Injected != 5 {
		t.Fatalf("outcome=%s attempts=%d cycles=%d injected=%d, want degraded/4/72500/5",
			cell.Outcome, cell.Attempts, cell.Cycles, cell.Injected)
	}
	wantReport := "  attempt 0 [filter-d] 0/250000 cycles: refused before any injector ran\n" +
		"  attempt 1 [filter-d] 1000/330000 cycles: injected filter fault\n" +
		"  attempt 2 [filter-d] 1000/484500 cycles: injected filter fault\n" +
		"  attempt 3 [sw-central] 500/928000 cycles: ok\n" +
		"  degraded to sw-central\n" +
		"  attempt 0 try 1\n  attempt 1 try 2\n  attempt 2 try 3"
	if cell.Report != wantReport {
		t.Fatalf("report:\n%q\nwant:\n%q", cell.Report, wantReport)
	}
}

// TestChaosPolicyStopsOnUnrecoverable: a setup failure or verify-detected
// corruption is one attempt, never retried. Under an active profile a setup
// failure is an attributed fault; corruption is always an error.
func TestChaosPolicyStopsOnUnrecoverable(t *testing.T) {
	for _, tc := range []struct {
		name    string
		err     error
		outcome string // "" when the cell is an error
		want    string // in the report, or in the error
	}{
		{"setup", unrecoverable{err: errors.New("building machine: bad")}, "fault",
			"barrier: resilient run aborted:\n  attempt 0 [filter-d] 10/250000 cycles: barrier: unrecoverable attempt failure: building machine: bad\n"},
		{"corruption", unrecoverable{corrupt: true, err: errors.New("result corruption: sum 3, want 4")}, "",
			"chaos: fake/filter-d/bus-delay: silent data corruption: barrier: unrecoverable attempt failure: result corruption: sum 3, want 4"},
	} {
		calls := 0
		cell, err := policyCell(t, barrier.KindFilterD, "bus-delay", 1_000_000, func(barrier.Kind, int, uint64) (uint64, error) {
			calls++
			return 10, tc.err
		})
		if calls != 1 || cell.Attempts != 1 || cell.Cycles != 10 || cell.Outcome != tc.outcome {
			t.Fatalf("%s: calls=%d attempts=%d cycles=%d outcome=%q err=%v; want one 10-cycle attempt, outcome %q",
				tc.name, calls, cell.Attempts, cell.Cycles, cell.Outcome, err, tc.outcome)
		}
		got := cell.Report
		if tc.outcome == "" {
			if err == nil {
				t.Fatalf("%s: corrupt cell reported no error", tc.name)
			}
			got = err.Error()
		} else if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !strings.HasPrefix(got, tc.want) {
			t.Errorf("%s: got %q, want it to begin %q", tc.name, got, tc.want)
		}
	}
}

// TestChaosPolicyStopsWhenStopped: an attempt stopped from outside (a
// deadline, a torn-down sweep) is neither retried nor degraded, and the
// cell's error still wraps core.ErrStopped so callers can tell a stop from
// a failure of the mechanism.
func TestChaosPolicyStopsWhenStopped(t *testing.T) {
	calls := 0
	cell, err := policyCell(t, barrier.KindFilterD, "bus-delay", 100_000, func(barrier.Kind, int, uint64) (uint64, error) {
		calls++
		return 10, fmt.Errorf("%w (last progress at cycle 10)", core.ErrStopped)
	})
	if !errors.Is(err, core.ErrStopped) || calls != 1 || cell.Outcome != "" || cell.Report != "" {
		t.Fatalf("stopped attempt: calls=%d outcome=%q err=%v; want one call and an error wrapping core.ErrStopped",
			calls, cell.Outcome, err)
	}
	if !strings.Contains(err.Error(), "barrier: resilient run stopped: ") {
		t.Fatalf("error %q does not say the run was stopped", err)
	}
}

// TestChaosPolicySoftwareKindsRunOnce: a software barrier has nothing to
// degrade to, so it gets one attempt; a failed fault-free cell is an error.
func TestChaosPolicySoftwareKindsRunOnce(t *testing.T) {
	calls := 0
	_, err := policyCell(t, barrier.KindSWCentral, "none", 100_000, func(barrier.Kind, int, uint64) (uint64, error) {
		calls++
		return 10, errors.New("software barriers have no degradation path")
	})
	if err == nil || calls != 1 || !strings.Contains(err.Error(), "fault-free cell failed: barrier: resilient run failed after 1 attempts:") {
		t.Fatalf("software kind: calls=%d, err=%v; want one attempt and a failed fault-free cell", calls, err)
	}
}

// TestChaosPolicyRespectsBudget: an attempt that reports more cycles than
// its budget is charged only its budget, so the cell never overdraws
// MaxCycles.
func TestChaosPolicyRespectsBudget(t *testing.T) {
	cell, err := policyCell(t, barrier.KindFilterD, "bus-delay", 100_000, func(_ barrier.Kind, _ int, budget uint64) (uint64, error) {
		return 2 * budget, errors.New("overruns its budget and fails")
	})
	if err != nil || cell.Outcome != "fault" {
		t.Fatalf("outcome %q, err %v; want an attributed fault", cell.Outcome, err)
	}
	if cell.Cycles > 100_000 {
		t.Fatalf("spent %d cycles over a 100000 budget", cell.Cycles)
	}
	for _, line := range strings.Split(cell.Report, "\n")[1 : cell.Attempts+1] {
		var try int
		var kind string
		var cycles, budget uint64
		if _, err := fmt.Sscanf(line, "  attempt %d [%s %d/%d", &try, &kind, &cycles, &budget); err != nil || cycles != budget {
			t.Errorf("attempt line %q: charged other than its budget (%v)", line, err)
		}
	}
}

// TestChaosPolicyBudgetShares: each attempt's budget is an even share of
// what remains after the backoff (remaining / attempts left), and the total
// is exactly the attempts plus the backoff charged.
func TestChaosPolicyBudgetShares(t *testing.T) {
	wantBudgets := []uint64{25_000, 29_966, 34_900, 29_700}
	var gotBudgets []uint64
	cell, err := policyCell(t, barrier.KindFilterD, "none", 100_000, func(kind barrier.Kind, _ int, budget uint64) (uint64, error) {
		gotBudgets = append(gotBudgets, budget)
		if kind == barrier.KindFilterD {
			return 100, errors.New("injected filter fault")
		}
		return 50, nil
	})
	if err != nil {
		t.Fatalf("degrading cell failed: %v", err)
	}
	if fmt.Sprint(gotBudgets) != fmt.Sprint(wantBudgets) {
		t.Fatalf("attempt budgets %v, want %v", gotBudgets, wantBudgets)
	}
	if cell.Cycles != 3*100+50+70_000 || cell.Outcome != "degraded" || cell.Attempts != 4 {
		t.Fatalf("cycles=%d outcome=%s attempts=%d, want 70350/degraded/4", cell.Cycles, cell.Outcome, cell.Attempts)
	}
}

// TestChaosPolicyExhaustionExactlyAtDeadline: when every attempt eats its
// entire budget and fails, the plan runs to completion with the cycle
// budget spent to exactly zero — never overdrawn, and the fallback attempt
// still gets its (full remaining) share.
func TestChaosPolicyExhaustionExactlyAtDeadline(t *testing.T) {
	var budgets []uint64
	cell, err := policyCell(t, barrier.KindFilterD, "bus-delay", 1_000_000, func(_ barrier.Kind, _ int, budget uint64) (uint64, error) {
		budgets = append(budgets, budget)
		return budget, errors.New("eats its whole budget and fails")
	})
	if err != nil || cell.Outcome != "fault" {
		t.Fatalf("outcome %q, err %v; want an attributed fault", cell.Outcome, err)
	}
	if cell.Attempts != 4 || cell.Cycles != 1_000_000 {
		t.Fatalf("attempts=%d cycles=%d, want all 4 attempts and exactly the 1000000 budget", cell.Attempts, cell.Cycles)
	}
	// Even shares of the remainder left after each backoff.
	if want := []uint64{250_000, 246_666, 236_667, 196_667}; fmt.Sprint(budgets) != fmt.Sprint(want) {
		t.Fatalf("attempt budgets %v, want %v", budgets, want)
	}
	if !strings.HasPrefix(cell.Report, "barrier: resilient run failed after 4 attempts:\n") {
		t.Fatalf("report does not give the attempt count:\n%s", cell.Report)
	}
}

// TestChaosPolicyBackoffConsumesRemainingBudget: when the next re-arm delay
// is at least the remaining budget, the plan stops before burning cycles it
// does not have — the boundary case wait == remaining included — and the
// unaffordable backoff is not charged.
func TestChaosPolicyBackoffConsumesRemainingBudget(t *testing.T) {
	calls := 0
	cell, err := policyCell(t, barrier.KindFilterD, "bus-delay", 12_000, func(barrier.Kind, int, uint64) (uint64, error) {
		calls++
		return 2_000, errors.New("injected filter fault")
	})
	// Attempt 0 gets 12000/4 = 3000 cycles and spends 2000; the first re-arm
	// wants 10000 cycles, which is every cycle left.
	if err != nil || cell.Outcome != "fault" {
		t.Fatalf("outcome %q, err %v; want an attributed fault", cell.Outcome, err)
	}
	if calls != 1 || cell.Attempts != 1 || cell.Cycles != 2_000 {
		t.Fatalf("calls=%d attempts=%d cycles=%d, want one attempt and 2000 cycles (no backoff charged)",
			calls, cell.Attempts, cell.Cycles)
	}
}
