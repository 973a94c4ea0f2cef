package core_test

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/barrier"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/mem"
)

// stopper is a test-only core.Checker. Its one piece of due work, at cycle
// due, fails the run; with onErrFill it also fails on the first error-coded
// response it observes, the cycle the memory system raises its fault.
type stopper struct {
	due       uint64
	onErrFill bool
	checks    []uint64 // the cycles Check ran at
	err       error
}

func (s *stopper) OnEvent(e mem.Event) {
	if s.onErrFill && s.err == nil && e.Kind == mem.EvMem && e.Txn.Err {
		s.err = errors.New("stopper: error fill observed")
	}
}

func (s *stopper) Check(now uint64) {
	s.checks = append(s.checks, now)
	if s.err == nil {
		s.err = fmt.Errorf("stopper: failed at cycle %d", now)
	}
	s.due = math.MaxUint64
}

func (s *stopper) Due() uint64 { return s.due }
func (s *stopper) Err() error  { return s.err }

// filterMachine launches body on two threads behind a D-cache filter
// barrier; the barrier is built for three, so a thread that reaches it
// parks there for good.
func filterMachine(t *testing.T, noFastPath bool, body func(b *asm.Builder, gen barrier.Generator)) *core.Machine {
	t.Helper()
	cfg := core.DefaultConfig(2)
	cfg.NoFastPath = noFastPath
	gen := barrier.MustNew(barrier.KindFilterD, 3, barrier.NewAllocator(cfg.Mem))
	prog, err := barrier.BuildProgram(gen, func(b *asm.Builder) { body(b, gen) })
	if err != nil {
		t.Fatal(err)
	}
	m := core.NewMachine(cfg)
	if err := barrier.Launch(m, gen, prog, 2); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestCheckerStopsBulkJump: with every core parked on a filter the run
// bulk-jumps over idle cycles, and the jump must stop at an attached
// checker's due cycle: a checker failing at D ends Run at exactly D, with
// its own error, polled at D alone — the same with the fast path off.
func TestCheckerStopsBulkJump(t *testing.T) {
	const due = 100_000
	for _, noFastPath := range []bool{false, true} {
		m := filterMachine(t, noFastPath, func(b *asm.Builder, gen barrier.Generator) { gen.EmitBarrier(b) })
		s := &stopper{due: due}
		m.Attach(s)
		n, err := m.Run(1_000_000)
		if n != due || err != s.err || err == nil {
			t.Errorf("NoFastPath=%v: Run = (%d, %v), want (%d, %v)", noFastPath, n, err, due, s.err)
		}
		if !slices.Equal(s.checks, []uint64{due}) {
			t.Errorf("NoFastPath=%v: checks ran at %v, want [%d]", noFastPath, s.checks, due)
		}
	}
}

// TestMemoryFaultOutranksChecker: a memory fault and a checker error
// latched in the same run — here in the same cycle — end it with the
// fault's error.
func TestMemoryFaultOutranksChecker(t *testing.T) {
	// Loading the arrival address without invalidating it first is the
	// §3.3.4 "load before invalidate" error: the filter answers with an
	// error-coded fill.
	m := filterMachine(t, false, func(b *asm.Builder, _ barrier.Generator) { b.LD(isa.RegT0, barrier.RegB1, 0) })
	s := &stopper{due: math.MaxUint64, onErrFill: true}
	m.Attach(s)
	_, err := m.Run(1_000_000)
	if s.err == nil {
		t.Fatal("the checker never saw the error fill; the precedence check is vacuous")
	}
	if err == nil || err == s.err || !strings.Contains(err.Error(), "memory-system error") {
		t.Fatalf("Run error %v, want the memory fault's", err)
	}
}
