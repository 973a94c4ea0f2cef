package harness

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/barrier"
	"repro/internal/core"
	"repro/internal/kernels"
)

// TestJournalSpecHeaderGuard: a journal opens with the content hash of its
// sweep spec, and -resume refuses a journal written for a different spec
// instead of silently replaying mismatched cells.
func TestJournalSpecHeaderGuard(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "guard.jsonl")
	opt := QuickOptions()
	opt.Workers = 1
	opt.JournalPath = path
	keys := []string{"g/0", "g/1"}
	body := func(i int, _ *cellCtx) (any, error) { return i, nil }
	if err := runCells(opt, "sweep-spec-A", 2, keys, body, nil); err != nil {
		t.Fatal(err)
	}

	opt.Resume = true
	err := runCells(opt, "sweep-spec-B", 2, keys, func(i int, _ *cellCtx) (any, error) {
		t.Fatalf("cell %d ran against a journal for a different spec", i)
		return nil, nil
	}, nil)
	if !errors.Is(err, ErrJournalSpec) {
		t.Fatalf("resume with a different spec: err = %v, want ErrJournalSpec", err)
	}
	if !strings.Contains(err.Error(), SpecHash("sweep-spec-A")) || !strings.Contains(err.Error(), SpecHash("sweep-spec-B")) {
		t.Fatalf("spec mismatch error does not name both hashes: %v", err)
	}

	// The matching spec still resumes cleanly.
	if err := runCells(opt, "sweep-spec-A", 2, keys, func(i int, _ *cellCtx) (any, error) {
		t.Fatalf("cell %d re-ran on a clean resume", i)
		return nil, nil
	}, nil); err != nil {
		t.Fatal(err)
	}

	// A journal with no header at all (cell records from line one) is
	// refused too: nothing ties it to this sweep.
	bare := filepath.Join(dir, "bare.jsonl")
	line, _ := appendRecord(Entry{Key: "g/0", Status: StatusOK, Data: json.RawMessage("0")})
	if err := os.WriteFile(bare, line, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(bare, true, "sweep-spec-A"); !errors.Is(err, ErrJournalSpec) {
		t.Fatalf("resume of a headerless journal: err = %v, want ErrJournalSpec", err)
	}
}

// TestJournalTornTailEveryOffset cuts a journal at every possible byte
// offset — through the header, mid-record, at record boundaries — and
// checks that resume (a) never errors, (b) recovers exactly the complete
// records before the cut, and (c) after the missing cells are re-run,
// finishes with bytes identical to the uninterrupted journal. A second pass
// damages the finished journal in place instead: every byte in turn has a
// bit flipped — a digit inside data that is still valid JSON, a newline, a
// checksum digit — and resume must treat the damaged line as the tear,
// keeping only the records before it.
func TestJournalTornTailEveryOffset(t *testing.T) {
	dir := t.TempDir()
	const spec = "torn-tail-spec"
	keys := []string{"t/0", "t/1", "t/2"}
	entries := make([]Entry, len(keys))
	for i, k := range keys {
		entries[i] = Entry{Key: k, Status: StatusOK, Data: json.RawMessage(fmt.Sprintf(`{"v":%d}`, i*11))}
	}

	full := filepath.Join(dir, "full.jsonl")
	j, err := OpenJournal(full, false, spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if err := j.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	want, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(want), "\n")
	if lines[len(lines)-1] == "" {
		lines = lines[:len(lines)-1]
	}
	if len(lines) != len(keys)+1 {
		t.Fatalf("journal has %d lines, want %d", len(lines), len(keys)+1)
	}
	// completeAt[c] = cell records wholly on disk when the file is cut at c.
	completeAt := func(cut int) int {
		n, off := 0, len(lines[0])
		for i := 1; i < len(lines); i++ {
			off += len(lines[i])
			if cut >= off {
				n++
			}
		}
		return n
	}
	// resume opens a damaged copy, checks what survived, re-runs the rest
	// and compares the finished file with the uninterrupted one.
	resume := func(what string, damaged []byte, wantDone int) {
		t.Helper()
		path := filepath.Join(dir, "damaged.jsonl")
		if err := os.WriteFile(path, damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := OpenJournal(path, true, spec)
		if err != nil {
			t.Fatalf("%s: resume failed: %v", what, err)
		}
		if got := len(j.done); got != wantDone {
			t.Fatalf("%s: recovered %d records, want %d", what, got, wantDone)
		}
		for i, e := range entries {
			got, ok := j.Done(e.Key)
			if ok != (i < wantDone) || (ok && string(got.Data) != string(e.Data)) {
				t.Fatalf("%s: record %s recovered=%v data %s, want the first %d intact", what, e.Key, ok, got.Data, wantDone)
			}
			if ok {
				continue
			}
			if err := j.Write(e); err != nil {
				t.Fatal(err)
			}
		}
		j.Close()
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("%s: resumed journal differs:\n--- want ---\n%s--- got ---\n%s", what, want, got)
		}
	}

	for cut := 0; cut <= len(want); cut++ {
		resume(fmt.Sprintf("cut at byte %d", cut), want[:cut], completeAt(cut))
	}

	// The intact records are those before the line the flipped byte is on
	// (a line owns its newline); a damaged header leaves none.
	off := 0
	for li, line := range lines {
		for i := range line {
			// A digit to its neighbour, a letter to its other case, a byte
			// out of ASCII.
			for _, mask := range []byte{0x01, 0x20, 0x80} {
				damaged := append([]byte(nil), want...)
				damaged[off+i] ^= mask
				resume(fmt.Sprintf("byte %d (line %d) ^ %#02x", off+i, li, mask), damaged, max(li-1, 0))
			}
		}
		off += len(line)
	}
}

// TestRunCellsContextCancelStopsInFlight: canceling Options.Ctx stops an
// in-flight cell at its next stop-check poll — core.Config.StopCheck, wired
// by the harness — rather than letting it run to its cycle budget, and the
// aborted cell leaves no journal record (a resume must re-run it).
func TestRunCellsContextCancelStopsInFlight(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cancel.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opt := QuickOptions()
	opt.Workers = 1
	opt.NoFastPath = true // no bulk jump to the cycle limit: the cancel must stop it
	opt.JournalPath = path
	opt.Ctx = ctx
	time.AfterFunc(50*time.Millisecond, cancel)

	start := time.Now()
	err := runCells(opt, "cancel-test", 2, []string{"cx/deadlock", "cx/after"}, func(i int, cctx *cellCtx) (any, error) {
		if i == 1 {
			t.Fatal("cell after the canceled one started")
		}
		cfg := cctx.Config(4)
		if cfg.StopCheck == nil {
			t.Fatal("context did not wire a StopCheck into the machine config")
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
	if err == nil || !errors.Is(err, core.ErrStopped) {
		t.Fatalf("err = %v, want one wrapping core.ErrStopped", err)
	}
	if !strings.Contains(err.Error(), "sweep canceled") {
		t.Fatalf("cancellation not attributed as a sweep teardown: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v to stop the cell", elapsed)
	}
	if entries := readJournal(t, path); len(entries) != 0 {
		t.Fatalf("canceled cell left %d journal records, want none: %+v", len(entries), entries)
	}
}

// TestRunCellsResumeAfterCancelByteIdentical: a sweep canceled partway and
// resumed finishes with a journal byte-identical to an uninterrupted run's —
// the canceled cell was never journaled, so the resume re-runs it.
func TestRunCellsResumeAfterCancelByteIdentical(t *testing.T) {
	dir := t.TempDir()
	const spec = "cancel-resume-test"
	keys := []string{"cr/0", "cr/1", "cr/2"}
	body := func(i int, _ *cellCtx) (any, error) { return i * 7, nil }

	uninterrupted := filepath.Join(dir, "uninterrupted.jsonl")
	opt := QuickOptions()
	opt.Workers = 1
	opt.JournalPath = uninterrupted
	if err := runCells(opt, spec, len(keys), keys, body, nil); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(uninterrupted)
	if err != nil {
		t.Fatal(err)
	}

	// First pass: cell 1 observes the cancellation mid-run (its machine
	// would return core.ErrStopped); the sweep must stop without
	// journaling it.
	interrupted := filepath.Join(dir, "interrupted.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	copt := opt
	copt.JournalPath = interrupted
	copt.Ctx = ctx
	err = runCells(copt, spec, len(keys), keys, func(i int, c *cellCtx) (any, error) {
		if i == 1 {
			cancel()
			return nil, fmt.Errorf("stopped mid-cell: %w", core.ErrStopped)
		}
		return body(i, c)
	}, nil)
	if err == nil || !strings.Contains(err.Error(), "sweep canceled") {
		t.Fatalf("err = %v, want a sweep-canceled error", err)
	}
	if got := readJournal(t, interrupted); len(got) != 1 || got[0].Key != keys[0] {
		t.Fatalf("interrupted journal has %+v, want only %s", got, keys[0])
	}

	// Resume: only the missing cells run, and the finished journal is
	// byte-identical to the uninterrupted one.
	ropt := opt
	ropt.JournalPath = interrupted
	ropt.Resume = true
	reran := map[int]bool{}
	if err := runCells(ropt, spec, len(keys), keys, func(i int, c *cellCtx) (any, error) {
		reran[i] = true
		return body(i, c)
	}, nil); err != nil {
		t.Fatal(err)
	}
	if reran[0] || !reran[1] || !reran[2] {
		t.Fatalf("resume re-ran %v, want exactly cells 1 and 2", reran)
	}
	got, err := os.ReadFile(interrupted)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("resumed journal differs from the uninterrupted run's:\n--- want ---\n%s--- got ---\n%s", want, got)
	}
}
