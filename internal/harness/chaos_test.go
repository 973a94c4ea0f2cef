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
// profile) through the fallback policy. A filter that cannot work — a
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
		wantDegraded bool // else the run fails after wantAttempts
		wantAttempts int
		wantVerified int
		failedErr    []string // every failed attempt's error contains these
	}{
		{"timeout-degrades", 4, barrier.KindFilterD, func(c *core.Config) { c.FilterTimeout = 1 },
			nil, true, 4, 1, nil},
		{"capacity-spill-degrades", 4, barrier.KindFilterD, func(c *core.Config) { c.Mem.FilterCap = 1 },
			nil, true, 4, 1, []string{"capacity"}},
		{"verify-failure-unrecoverable", 2, barrier.KindFilterD, nil,
			errors.New("checksum mismatch"), false, 1, 1, []string{"result corruption"}},
		{"bad-geometry-unrecoverable", 2, barrier.KindSWCentral, func(c *core.Config) { c.Mem.L1Assoc = 3 }, // 64kB does not divide into 3 ways
			nil, false, 1, 0, []string{barrier.ErrUnrecoverable.Error(), mem.ErrConfig.Error()}},
	}
	none, _ := faults.ProfileByName("none")
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opt := tinyOptions()
			opt.MaxCycles = 2_000_000
			k := &doneKernel{verifyErr: tc.verifyErr}
			res, err := runCell(opt, func(c *cellCtx) (barrier.FallbackResult, error) {
				cfg := c.Config(tc.threads)
				if tc.tweak != nil {
					tc.tweak(&cfg)
				}
				res, _, _, err := c.chaosAttempts(cfg, k, tc.kind, none, 1, tc.threads)
				return res, err
			})
			if tc.wantDegraded != (err == nil) {
				t.Fatalf("err = %v, want degraded completion %v\n%s", err, tc.wantDegraded, res.Report())
			}
			if tc.wantDegraded && (!res.Degraded || res.Kind != barrier.KindSWCentral) {
				t.Fatalf("kind=%v degraded=%v, want degradation to sw-central", res.Kind, res.Degraded)
			}
			if len(res.Attempts) != tc.wantAttempts || k.verified != tc.wantVerified {
				t.Fatalf("attempts=%d verified=%d, want %d and %d", len(res.Attempts), k.verified, tc.wantAttempts, tc.wantVerified)
			}
			failed := res.Attempts
			if tc.wantDegraded {
				failed = failed[:len(failed)-1]
			}
			for _, a := range failed {
				if a.Err == "" {
					t.Errorf("attempt %d [%s] succeeded", a.Try, a.Kind)
				}
				for _, want := range tc.failedErr {
					if !strings.Contains(a.Err, want) {
						t.Errorf("attempt %d error %q does not contain %q", a.Try, a.Err, want)
					}
				}
			}
		})
	}
}
