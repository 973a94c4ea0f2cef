package harness

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/barrier"
	"repro/internal/core"
	"repro/internal/kernels"
)

// fig4TestOptions is a small, fast Figure 4 sweep: 2 core counts x all
// mechanisms.
func fig4TestOptions(journal string, resume bool) Options {
	o := QuickOptions()
	o.Fig4Cores = []int{4, 8}
	o.Workers = 2
	o.JournalPath = journal
	o.Resume = resume
	return o
}

// TestJournalKillResumeByteIdentical is the crash-recovery contract: a sweep
// killed partway (simulated by truncating its journal mid-line) and resumed
// with -resume must produce a journal byte-identical to an uninterrupted
// run's, and the same results.
func TestJournalKillResumeByteIdentical(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.jsonl")
	wantPts, err := Fig4(fig4TestOptions(full, false))
	if err != nil {
		t.Fatal(err)
	}
	wantJournal, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(strings.TrimSuffix(string(wantJournal), "\n"), "\n")
	if len(lines) != len(wantPts)+1 {
		t.Fatalf("journal has %d lines for %d cells plus the spec header", len(lines), len(wantPts))
	}

	// Simulate a kill after 3 cells, mid-write of the 4th: keep the header
	// and 3 complete lines plus a torn tail (half of line 4, no newline).
	interrupted := filepath.Join(dir, "interrupted.jsonl")
	torn := strings.Join(lines[:4], "") + lines[4][:len(lines[4])/2]
	if err := os.WriteFile(interrupted, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}
	gotPts, err := Fig4(fig4TestOptions(interrupted, true))
	if err != nil {
		t.Fatal(err)
	}
	gotJournal, err := os.ReadFile(interrupted)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotJournal) != string(wantJournal) {
		t.Fatalf("resumed journal differs from the uninterrupted run's:\n--- want ---\n%s--- got ---\n%s", wantJournal, gotJournal)
	}
	if !reflect.DeepEqual(gotPts, wantPts) {
		t.Fatalf("resumed results differ:\nwant %+v\ngot  %+v", wantPts, gotPts)
	}
}

// TestJournalResumeSkipsCompletedCells proves resume replays journaled cells
// instead of re-simulating them: with every cell journaled, the "sweep"
// completes instantly and the journal is untouched.
func TestJournalResumeSkipsCompletedCells(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "done.jsonl")
	want, err := Fig4(fig4TestOptions(path, false))
	if err != nil {
		t.Fatal(err)
	}
	before, _ := os.ReadFile(path)
	start := time.Now()
	got, err := Fig4(fig4TestOptions(path, true))
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("fully-journaled resume took %v; cells were re-simulated", elapsed)
	}
	after, _ := os.ReadFile(path)
	if string(before) != string(after) {
		t.Fatal("resume of a complete journal modified it")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed results differ:\nwant %+v\ngot  %+v", want, got)
	}
}

// TestRunCellsPanicRecovery: one panicking cell must not take down the
// sweep; it is journaled with status "panic" and the other cells complete.
func TestRunCellsPanicRecovery(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "panic.jsonl")
	opt := QuickOptions()
	opt.Workers = 2
	opt.JournalPath = path
	ran := make([]bool, 4)
	keys := []string{"c/0", "c/1", "c/2", "c/3"}
	err := runCells(opt, "panic-test", 4, keys, func(i int, _ *cellCtx) (any, error) {
		if i == 1 {
			panic("injected test panic")
		}
		ran[i] = true
		return i, nil
	}, nil)
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("err = %v, want the recovered panic", err)
	}
	for _, i := range []int{0, 2, 3} {
		if !ran[i] {
			t.Fatalf("cell %d did not run after cell 1 panicked", i)
		}
	}
	entries := readJournal(t, path)
	if len(entries) != 4 {
		t.Fatalf("journal has %d entries, want 4", len(entries))
	}
	if entries[1].Status != StatusPanic || !strings.Contains(entries[1].Error, "injected test panic") {
		t.Fatalf("cell 1 journaled as %q (%q), want panic", entries[1].Status, entries[1].Error)
	}
	for _, i := range []int{0, 2, 3} {
		if entries[i].Status != StatusOK {
			t.Fatalf("cell %d journaled as %q, want ok", i, entries[i].Status)
		}
	}
}

// TestRunCellsPanicWithoutJournal: without a journal, panics still become
// errors (legacy stop-at-first-error semantics).
func TestRunCellsPanicWithoutJournal(t *testing.T) {
	opt := QuickOptions()
	opt.Workers = 1
	err := runCells(opt, "", 2, nil, func(i int, _ *cellCtx) (any, error) {
		if i == 0 {
			panic(fmt.Errorf("boom"))
		}
		t.Fatal("cell 1 ran after cell 0 failed (sequential mode must stop)")
		return nil, nil
	}, nil)
	if err == nil || !errors.Is(err, errCellPanic) {
		t.Fatalf("err = %v, want errCellPanic", err)
	}
}

// TestCellDeadlineJournaledAsTimeout runs one deliberately deadlocked cell
// (a filter barrier waiting on a descheduled thread, fast path off so the
// simulation crawls) under a wall-clock deadline: the cell must stop at a
// stop-check poll, be journaled as "timeout" with its last-progress cycle,
// and the sweep must go on to run the cells after it.
func TestCellDeadlineJournaledAsTimeout(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "deadline.jsonl")
	opt := QuickOptions()
	opt.Workers = 1
	opt.NoFastPath = true // no bulk jump to the cycle limit: the deadline must do it
	opt.CellDeadline = 50 * time.Millisecond
	opt.JournalPath = path
	ranAfter := false
	keys := []string{"dl/deadlock", "dl/after"}
	err := runCells(opt, "deadline-test", 2, keys, func(i int, ctx *cellCtx) (any, error) {
		if i == 1 {
			ranAfter = true
			return "ok", nil
		}
		cfg := ctx.Config(4)
		if cfg.StopCheck == nil {
			t.Fatal("deadline did not wire a StopCheck into the machine config")
		}
		alloc := barrier.NewAllocator(cfg.Mem)
		gen, err := barrier.New(barrier.KindFilterD, 4, alloc)
		if err != nil {
			return nil, err
		}
		mb := &kernels.Microbench{K: 4, M: 2}
		prog, err := mb.BuildPar(gen, 4)
		if err != nil {
			return nil, err
		}
		m, err := core.NewMachineChecked(cfg)
		if err != nil {
			return nil, err
		}
		if err := barrier.Launch(m, gen, prog, 4); err != nil {
			return nil, err
		}
		// Deadlock: one registered thread never arrives.
		if _, _, err := m.Cores[3].Deschedule(); err != nil {
			return nil, err
		}
		if _, err := m.Run(2_000_000_000); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("deadlocked cell completed")
	}, nil)
	if err == nil {
		t.Fatal("expected the timed-out cell as the sweep error")
	}
	if !errors.Is(err, core.ErrStopped) {
		t.Fatalf("err = %v, want one wrapping core.ErrStopped", err)
	}
	if !strings.Contains(err.Error(), "last progress at cycle") {
		t.Fatalf("timeout does not carry the last-progress cycle: %v", err)
	}
	if !ranAfter {
		t.Fatal("sweep did not continue past the timed-out cell")
	}
	entries := readJournal(t, path)
	if len(entries) != 2 {
		t.Fatalf("journal has %d entries, want 2", len(entries))
	}
	if entries[0].Status != StatusTimeout || !strings.Contains(entries[0].Error, "last progress at cycle") {
		t.Fatalf("deadlocked cell journaled as %q (%q), want timeout with last-progress cycle", entries[0].Status, entries[0].Error)
	}
	if entries[1].Status != StatusOK {
		t.Fatalf("follow-on cell journaled as %q, want ok", entries[1].Status)
	}
}

// TestCellDeadlineAppliesToWarmCells: the warm-measurement experiments
// (Table 1, Figures 5-10, ocean, scale's speedup half) build their machines
// through the same lifecycle as Figure 4, so a per-cell deadline far shorter
// than any of their cells stops the sweep with the stop-check error instead
// of being ignored while the figure is computed.
func TestCellDeadlineAppliesToWarmCells(t *testing.T) {
	opt := tinyOptions()
	opt.CellDeadline = time.Millisecond
	if _, err := Fig5(opt); !errors.Is(err, core.ErrStopped) {
		t.Fatalf("Fig5 under a 1ms cell deadline: err = %v, want one wrapping core.ErrStopped", err)
	}
}

// TestJournalResumeSkipsFailedCells: a journaled failure is not retried on
// resume; it surfaces as the sweep error without re-running the cell.
func TestJournalResumeSkipsFailedCells(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "failed.jsonl")
	opt := QuickOptions()
	opt.Workers = 1
	opt.JournalPath = path
	keys := []string{"c/0", "c/1"}
	if err := runCells(opt, "failed-test", 2, keys, func(i int, _ *cellCtx) (any, error) {
		if i == 0 {
			return nil, fmt.Errorf("transient cell failure")
		}
		return i, nil
	}, nil); err == nil {
		t.Fatal("first run should report the failing cell")
	}
	opt.Resume = true
	err := runCells(opt, "failed-test", 2, keys, func(i int, _ *cellCtx) (any, error) {
		t.Fatalf("cell %d re-ran on resume", i)
		return nil, nil
	}, nil)
	if err == nil || !strings.Contains(err.Error(), "journaled error") {
		t.Fatalf("err = %v, want the journaled failure", err)
	}
}

// readJournal parses a journal, checks its spec header, and returns the
// cell entries (header excluded).
func readJournal(t *testing.T, path string) []Entry {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out []Entry
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		var e Entry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("bad journal line %q: %v", line, err)
		}
		out = append(out, e)
	}
	if len(out) == 0 || out[0].Key != specKey || out[0].Status != specStatus || out[0].Spec == "" {
		t.Fatalf("journal %s does not open with a spec header", path)
	}
	return out[1:]
}
