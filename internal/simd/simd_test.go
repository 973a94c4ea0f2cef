package simd

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// smallSpec is the standard test sweep: tiny microbench cells that finish
// in milliseconds, one fault-free and one chaos profile.
func smallSpec() Spec {
	return Spec{
		Kernels: []string{"microbench"},
		N:       4, Loops: 2,
		Mechanisms: []string{"filter-d"},
		Threads:    4,
		Seeds:      []uint64{1, 2},
		Chaos:      []string{"none", "spurious-fill"},
		MaxCycles:  1_000_000,
	}
}

// oneFaultFreeCell narrows smallSpec to one fault-free cell of a mechanism.
func oneFaultFreeCell(mechanism string) func(*Spec) {
	return func(s *Spec) {
		s.Mechanisms, s.Chaos, s.Seeds = []string{mechanism}, []string{"none"}, []uint64{1}
	}
}

func TestNormalizeValidation(t *testing.T) {
	lim := DefaultLimits()
	cases := []struct {
		name string
		mut  func(*Spec)
		code string
	}{
		{"unknown kernel", func(s *Spec) { s.Kernels = []string{"nope"} }, "bad-kernel"},
		{"no kernels", func(s *Spec) { s.Kernels = nil }, "bad-spec"},
		{"unknown mechanism", func(s *Spec) { s.Mechanisms = []string{"tree-of-lies"} }, "bad-mechanism"},
		{"unknown fabric", func(s *Spec) { s.Fabric = "tokenring" }, "bad-fabric"},
		{"unknown chaos", func(s *Spec) { s.Chaos = []string{"zalgo"} }, "bad-chaos"},
		{"one thread", func(s *Spec) { s.Threads = 1 }, "bad-spec"},
		{"negative deadline", func(s *Spec) { s.DeadlineMS = -1 }, "bad-spec"},
		// Millisecond counts whose time.Duration wraps: to 448µs, and to a
		// negative (no, or an already expired) deadline.
		{"deadline wraps short", func(s *Spec) { s.DeadlineMS = 18446744073710 }, "bad-spec"},
		{"deadline wraps negative", func(s *Spec) { s.DeadlineMS = 9223372036855 }, "bad-spec"},
		{"queue deadline wraps short", func(s *Spec) { s.QueueDeadlineMS = 18446744073710 }, "bad-spec"},
		{"queue deadline wraps negative", func(s *Spec) { s.QueueDeadlineMS = 9223372036855 }, "bad-spec"},
		{"cycle budget over limit", func(s *Spec) { s.MaxCycles = lim.MaxCycles + 1 }, "bad-spec"},
		{"kernel listed twice", func(s *Spec) { s.Kernels = []string{"microbench", "microbench"} }, "bad-spec"},
		{"seed listed twice", func(s *Spec) { s.Seeds = []uint64{3, 1, 3} }, "bad-spec"},
		// Sizes: a size the kernel's constructor rejects is an error, not
		// its panic, and an absurd n or loops is refused before any
		// constructor allocates operands for it.
		{"livermore2 off a power of two", func(s *Spec) { s.Kernels, s.N = []string{"livermore2"}, 100 }, "bad-kernel"},
		{"livermore6 matrix over the operand bound", func(s *Spec) { s.Kernels, s.N = []string{"livermore6"}, 2048 }, "bad-kernel"},
		{"pipeline items over the operand bound", func(s *Spec) { s.Kernels, s.N, s.Loops = []string{"pipeline"}, 4096, 4096 }, "bad-kernel"},
		{"n over the bound", func(s *Spec) { s.N = maxKernelSize + 1 }, "bad-spec"},
		{"n absurd", func(s *Spec) { s.Kernels, s.N = []string{"livermore1"}, 4_000_000_000 }, "bad-spec"},
		{"loops over the bound", func(s *Spec) { s.Loops = maxKernelSize + 1 }, "bad-spec"},
		// Code "": every kind barrier.ParseKind names builds, and a
		// one-cell fault-free sweep of it finishes ok/identical.
		{"sw-ticket", oneFaultFreeCell("sw-ticket"), ""},
		{"sw-array", oneFaultFreeCell("sw-array"), ""},
		{"hw-tree", oneFaultFreeCell("hw-tree"), ""},
	}
	for _, tc := range cases {
		spec := smallSpec()
		tc.mut(&spec)
		sw, err := Normalize(spec, lim)
		if tc.code == "" {
			if err != nil || len(sw.Cells) != 1 {
				t.Errorf("%s: err = %v, want one accepted cell", tc.name, err)
				continue
			}
			if res, rerr := RunCell(context.Background(), sw.Cells[0]); rerr != nil || res.Status != "ok" || res.Outcome != "identical" {
				t.Errorf("%s: cell %+v (err %v), want ok/identical", tc.name, res, rerr)
			}
			continue
		}
		if err == nil || err.Code != tc.code {
			t.Errorf("%s: err = %v, want code %q", tc.name, err, tc.code)
		}
	}

	// An out-of-range deadline names its own field.
	for _, field := range []string{"deadline_ms", "queue_deadline_ms"} {
		spec := smallSpec()
		if field == "deadline_ms" {
			spec.DeadlineMS = -1
		} else {
			spec.QueueDeadlineMS = -1
		}
		if _, err := Normalize(spec, lim); err == nil || err.Field != field {
			t.Errorf("negative %s: err = %v, want it to name the field", field, err)
		}
	}

	spec := smallSpec()
	spec.Seeds = []uint64{1, 2, 3}
	if _, err := Normalize(spec, Limits{MaxCells: 5, MaxThreads: 16, MaxCycles: lim.MaxCycles}); err == nil || err.Code != "too-large" {
		t.Errorf("oversized sweep: err = %v, want code too-large", err)
	}

	// Defaults fill in and the expansion is the full cross product.
	sw, serr := Normalize(Spec{Kernels: []string{"microbench"}}, lim)
	if serr != nil {
		t.Fatalf("minimal spec rejected: %v", serr)
	}
	s := sw.Spec
	if len(s.Mechanisms) != 1 || s.Mechanisms[0] != "filter-d" || s.Threads != 8 ||
		len(s.Seeds) != 1 || len(s.Chaos) != 1 || s.Chaos[0] != "none" ||
		s.MaxCycles != 2_000_000 || s.Fabric != "bus" {
		t.Fatalf("defaults not filled: %+v", s)
	}
	if len(sw.Cells) != 1 || sw.Cells[0].Key != "microbench/filter-d/none/s1" {
		t.Fatalf("cells = %+v", sw.Cells)
	}

	// Two spellings of one fabric are one machine: one sweep hash, one
	// cell hash (else every resubmission under the other spelling misses
	// the cache and journal).
	var hashes [2][]string
	for i, spelling := range []string{"xbar", "crossbar"} {
		spec := smallSpec()
		spec.Fabric = spelling
		sw, err := Normalize(spec, lim)
		if err != nil {
			t.Fatalf("fabric %q rejected: %v", spelling, err)
		}
		hashes[i] = append(hashes[i], sw.Hash, sw.Spec.Fabric)
		for _, c := range sw.Cells {
			hashes[i] = append(hashes[i], c.Hash)
		}
	}
	if !slices.Equal(hashes[0], hashes[1]) {
		t.Errorf("fabric spellings xbar and crossbar hash differently:\n%v\n%v", hashes[0], hashes[1])
	}
}

// TestHashExcludesRuntimeKnobs: the sweep and cell hashes are identities of
// what the simulator computes, not how it is driven — deadlines, worker
// perturbations, and cache policy must not move them. That exclusion is the
// oracle property: a -nofastpath resubmission maps onto the same cache keys.
func TestHashExcludesRuntimeKnobs(t *testing.T) {
	lim := DefaultLimits()
	base, err := Normalize(smallSpec(), lim)
	if err != nil {
		t.Fatal(err)
	}
	perturbed := smallSpec()
	perturbed.NoFastPath = true
	perturbed.NoTranslate = true
	perturbed.Recompute = true
	perturbed.DeadlineMS = 5000
	perturbed.QueueDeadlineMS = 5000
	pert, perr := Normalize(perturbed, lim)
	if perr != nil {
		t.Fatal(perr)
	}
	if base.Hash != pert.Hash {
		t.Fatalf("runtime knobs moved the sweep hash: %s vs %s", base.Hash, pert.Hash)
	}
	for i := range base.Cells {
		if base.Cells[i].Hash != pert.Cells[i].Hash {
			t.Fatalf("cell %d hash moved: %s vs %s", i, base.Cells[i].Hash, pert.Cells[i].Hash)
		}
	}

	changed := smallSpec()
	changed.MaxCycles++
	ch, cerr := Normalize(changed, lim)
	if cerr != nil {
		t.Fatal(cerr)
	}
	if ch.Hash == base.Hash || ch.Cells[0].Hash == base.Cells[0].Hash {
		t.Fatal("a behavior-affecting knob (max_cycles) did not move the hashes")
	}
}

// entry is canonical result bytes naming hash, as the cache holds them.
func entry(hash string, cycles uint64) []byte {
	return Result{Key: "k", Hash: hash, Status: "ok", Cycles: cycles}.Bytes()
}

func TestCacheOracle(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	v1 := entry("h1", 1)
	if err := c.Put("h1", v1); err != nil {
		t.Fatal(err)
	}
	if b, ok := c.Get("h1"); !ok || !bytes.Equal(b, v1) {
		t.Fatalf("get = %q, %v", b, ok)
	}
	if err := c.Put("h1", v1); err != nil {
		t.Fatalf("identical re-put flagged: %v", err)
	}
	if err := c.Put("h1", entry("h1", 2)); !errors.Is(err, ErrOracle) {
		t.Fatalf("divergent re-put: err = %v, want ErrOracle", err)
	}
	_, _, oracleOK := c.Stats()
	if oracleOK != 1 {
		t.Fatalf("oracleOK = %d, want 1", oracleOK)
	}

	// The disk tier survives a new cache over the same directory, and the
	// oracle check works against it too.
	c2, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if b, ok := c2.Get("h1"); !ok || !bytes.Equal(b, v1) {
		t.Fatalf("disk tier get = %q, %v", b, ok)
	}
	if err := c2.Put("h1", entry("h1", 3)); !errors.Is(err, ErrOracle) {
		t.Fatalf("divergent put against disk tier: err = %v, want ErrOracle", err)
	}
}

// TestCacheDropsDamagedEntry: a file that does not decode as a result, or
// names another hash, is disk damage. Get reports it absent and removes it,
// and Put over it writes the fresh bytes instead of failing the oracle.
func TestCacheDropsDamagedEntry(t *testing.T) {
	for name, damage := range map[string][]byte{
		"torn":       []byte(`{"key":`),
		"other hash": entry("h2", 1),
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "h1.json")
			if err := os.WriteFile(path, damage, 0o644); err != nil {
				t.Fatal(err)
			}
			c, err := NewCache(dir)
			if err != nil {
				t.Fatal(err)
			}
			if b, ok := c.Get("h1"); ok {
				t.Fatalf("damaged entry served: %q", b)
			}
			if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("damaged entry left on disk: %v", err)
			}
			if err := os.WriteFile(path, damage, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := c.Put("h1", entry("h1", 1)); err != nil {
				t.Fatalf("put over a damaged entry: %v", err)
			}
			if b, err := os.ReadFile(path); err != nil || !bytes.Equal(b, entry("h1", 1)) {
				t.Fatalf("entry on disk after the put = %q, %v", b, err)
			}
		})
	}
}

// --- HTTP helpers ---

// newTestServer serves s behind httptest and, on cleanup, asserts that
// closing it leaves nothing behind. Each request runs under a profiler label
// naming this server; goroutines inherit their creator's labels, so every
// goroutine the server starts on a request's behalf (the Runner's dispatcher
// and cells are the only ones) carries it, and none may still be in the
// goroutine profile once Close has returned. The poll covers the moment
// between a goroutine's last send and its exit.
func newTestServer(t *testing.T, cfg Config) (*httptest.Server, *Server) {
	t.Helper()
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	label := fmt.Sprintf("%s@%p", t.Name(), s)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		pprof.Do(r.Context(), pprof.Labels("simd-test-server", label), func(context.Context) { s.ServeHTTP(w, r) })
	}))
	t.Cleanup(func() {
		ts.Close()
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			var profile bytes.Buffer
			if err := pprof.Lookup("goroutine").WriteTo(&profile, 1); err != nil {
				t.Errorf("goroutine profile: %v", err)
				return
			}
			if !strings.Contains(profile.String(), label) {
				return
			}
			if time.Now().After(deadline) {
				t.Errorf("goroutines started under the server outlive ts.Close():\n%s", profile.String())
				return
			}
		}
	})
	return ts, s
}

// waitInflight polls until exactly n sweeps hold admission tickets.
func waitInflight(t *testing.T, s *Server, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		s.mu.Lock()
		inflight := len(s.tickets)
		s.mu.Unlock()
		if inflight == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d sweeps admitted, waited for %d", inflight, n)
		}
	}
}

func postSweep(t *testing.T, ctx context.Context, url string, spec Spec) (*http.Response, error) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/sweep", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	return http.DefaultClient.Do(req)
}

// runSweepHTTP submits a spec and decodes the whole NDJSON stream.
func runSweepHTTP(t *testing.T, url string, spec Spec) []streamLine {
	t.Helper()
	resp, err := postSweep(t, context.Background(), url, spec)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error *Error `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("sweep answered %d: %v", resp.StatusCode, e.Error)
	}
	var lines []streamLine
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var l streamLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		lines = append(lines, l)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// cellResults extracts the per-cell results, asserting stream shape: one
// accepted line, cells strictly in index order, one done line.
func cellResults(t *testing.T, lines []streamLine) []streamLine {
	t.Helper()
	if len(lines) < 2 || lines[0].Type != "accepted" {
		t.Fatalf("stream does not open with accepted: %+v", lines)
	}
	last := lines[len(lines)-1]
	if last.Type != "done" {
		t.Fatalf("stream does not end with done: %+v", last)
	}
	cells := lines[1 : len(lines)-1]
	for i, l := range cells {
		if l.Type != "cell" || l.Index == nil || *l.Index != i || l.Result == nil {
			t.Fatalf("cell line %d malformed: %+v", i, l)
		}
	}
	if last.Cells != len(cells) {
		t.Fatalf("done counts %d cells, stream carried %d", last.Cells, len(cells))
	}
	return cells
}

func resultBytes(t *testing.T, cells []streamLine) []string {
	t.Helper()
	out := make([]string, len(cells))
	for i, c := range cells {
		out[i] = string(c.Result.Bytes())
	}
	return out
}

// TestServerSweepCacheAndOracle: a sweep runs clean; resubmitting it is
// served byte-identically from the cache without re-simulating; and a
// recompute pass with the fast path and translation cache disabled
// re-simulates everything to the same bytes — the cache acting as a
// regression oracle across simulator perturbations.
func TestServerSweepCacheAndOracle(t *testing.T) {
	ts, s := newTestServer(t, Config{Workers: 2})
	spec := smallSpec()

	first := cellResults(t, runSweepHTTP(t, ts.URL, spec))
	if len(first) != 4 {
		t.Fatalf("got %d cells, want 4", len(first))
	}
	for _, c := range first {
		if c.Cached || c.Result.Status != "ok" {
			t.Fatalf("fresh cell malformed: %+v", c.Result)
		}
	}
	want := resultBytes(t, first)

	second := cellResults(t, runSweepHTTP(t, ts.URL, spec))
	for i, c := range second {
		if !c.Cached {
			t.Fatalf("cell %d re-simulated on an identical spec", i)
		}
		if string(c.Result.Bytes()) != want[i] {
			t.Fatalf("cell %d cached bytes differ:\n%s\n%s", i, c.Result.Bytes(), want[i])
		}
	}
	hits, _, _ := s.cache.Stats()
	if hits < 4 {
		t.Fatalf("cache hits = %d, want >= 4", hits)
	}

	oracle := spec
	oracle.Recompute = true
	oracle.NoFastPath = true
	oracle.NoTranslate = true
	third := cellResults(t, runSweepHTTP(t, ts.URL, oracle))
	for i, c := range third {
		if c.Cached {
			t.Fatalf("cell %d served from cache under recompute", i)
		}
		if string(c.Result.Bytes()) != want[i] {
			t.Fatalf("cell %d: perturbed simulator diverged:\n%s\n%s", i, c.Result.Bytes(), want[i])
		}
	}
	_, _, oracleOK := s.cache.Stats()
	if oracleOK < 4 {
		t.Fatalf("oracle-confirmed recomputations = %d, want >= 4", oracleOK)
	}
}

// serverStats reads the server's /v1/stats counters.
func serverStats(t *testing.T, url string) Stats {
	t.Helper()
	resp, err := http.Get(url + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestServerCoalescesSeedFreeCells: the fault-free cells of a sweep that
// differ only in their seed share one simulation, yet every cell streams
// exactly the bytes RunCell gives it on its own — key and hash included —
// as a fresh result. Two of the three fault-free cells per mechanism are
// followers. A recompute pass simulates every cell again and the oracle
// confirms them all.
func TestServerCoalescesSeedFreeCells(t *testing.T) {
	ts, _ := newTestServer(t, Config{Workers: 2})
	spec := smallSpec()
	spec.Mechanisms = []string{"filter-d", "sw-central"}
	spec.Seeds = []uint64{1, 2, 3}
	sw, serr := Normalize(spec, DefaultLimits())
	if serr != nil {
		t.Fatal(serr)
	}
	want := make([]string, len(sw.Cells))
	for i, c := range sw.Cells {
		res, err := RunCell(context.Background(), c)
		if err != nil {
			t.Fatalf("%s: %v", c.Key, err)
		}
		want[i] = string(res.Bytes())
	}

	for i, c := range cellResults(t, runSweepHTTP(t, ts.URL, spec)) {
		if c.Cached || c.Replay {
			t.Errorf("cell %d: cached=%v replayed=%v, want a fresh result", i, c.Cached, c.Replay)
		}
		if got := string(c.Result.Bytes()); got != want[i] {
			t.Errorf("cell %d streamed bytes differ from RunCell's:\n%s\n%s", i, got, want[i])
		}
	}
	before := serverStats(t, ts.URL)
	if before.Coalesced != 4 {
		t.Fatalf("coalesced = %d, want 4 (two fault-free followers per mechanism)", before.Coalesced)
	}

	oracle := spec
	oracle.Recompute = true
	for i, c := range cellResults(t, runSweepHTTP(t, ts.URL, oracle)) {
		if got := string(c.Result.Bytes()); c.Cached || got != want[i] {
			t.Errorf("recomputed cell %d: cached=%v\n%s\n%s", i, c.Cached, got, want[i])
		}
	}
	after := serverStats(t, ts.URL)
	if after.Coalesced != before.Coalesced || after.OracleOK-before.OracleOK != int64(len(want)) {
		t.Fatalf("recompute pass: coalesced %d -> %d, oracle confirmed %d of %d cells",
			before.Coalesced, after.Coalesced, after.OracleOK-before.OracleOK, len(want))
	}
}

// TestServerDamagedCacheEntryResimulates: a cache file damaged on disk is
// not an oracle failure. A server over the damaged directory re-simulates
// that cell to a fresh ok result and rewrites the entry, so the next sweep
// serves it from the cache.
func TestServerDamagedCacheEntryResimulates(t *testing.T) {
	dir := t.TempDir()
	spec := smallSpec()
	ts, _ := newTestServer(t, Config{Workers: 1, CacheDir: dir})
	first := cellResults(t, runSweepHTTP(t, ts.URL, spec))
	want := resultBytes(t, first)

	const damaged = 2
	if err := os.WriteFile(filepath.Join(dir, first[damaged].Result.Hash+".json"), []byte(`{"key":`), 0o644); err != nil {
		t.Fatal(err)
	}
	ts2, _ := newTestServer(t, Config{Workers: 1, CacheDir: dir})
	for pass, wantCached := range []bool{false, true} {
		for i, c := range cellResults(t, runSweepHTTP(t, ts2.URL, spec)) {
			if c.Result.Status != "ok" || string(c.Result.Bytes()) != want[i] {
				t.Errorf("pass %d cell %d: %s, want %s", pass, i, c.Result.Bytes(), want[i])
			}
			if c.Cached != (wantCached || i != damaged) {
				t.Errorf("pass %d cell %d: cached=%v", pass, i, c.Cached)
			}
		}
	}
}

// TestServerKillResumeByteIdentical tears a sweep down mid-flight (the
// client vanishes, as a kill would) and resubmits it: the resumed journal
// and the streamed results must be byte-identical to an uninterrupted
// run's. One chaos-profile cell runs on every fabric.
func TestServerKillResumeByteIdentical(t *testing.T) {
	for _, fabric := range []string{"bus", "xbar", "mesh"} {
		fabric := fabric
		t.Run(fabric, func(t *testing.T) {
			t.Parallel()
			spec := smallSpec()
			spec.Fabric = fabric
			spec.Seeds = []uint64{1, 2, 3}
			spec.Chaos = []string{"spurious-fill"}

			// Reference: an uninterrupted run.
			refDir := t.TempDir()
			refTS, _ := newTestServer(t, Config{Workers: 1, JournalDir: refDir})
			wantCells := cellResults(t, runSweepHTTP(t, refTS.URL, spec))
			want := resultBytes(t, wantCells)
			refJournals, err := filepath.Glob(filepath.Join(refDir, "*.jsonl"))
			if err != nil || len(refJournals) != 1 {
				t.Fatalf("reference journals: %v, %v", refJournals, err)
			}
			wantJournal, err := os.ReadFile(refJournals[0])
			if err != nil {
				t.Fatal(err)
			}

			// Interrupted: cancel the request after the stream opens, while
			// cells are still running.
			dir := t.TempDir()
			ts, _ := newTestServer(t, Config{Workers: 1, JournalDir: dir})
			ctx, cancel := context.WithCancel(context.Background())
			resp, err := postSweep(t, ctx, ts.URL, spec)
			if err != nil {
				cancel()
				t.Fatal(err)
			}
			br := bufio.NewReader(resp.Body)
			if _, err := br.ReadString('\n'); err != nil { // the accepted line
				cancel()
				t.Fatal(err)
			}
			cancel()
			resp.Body.Close()

			// Resume: the same spec against the same journal dir finishes the
			// sweep; both the stream and the journal match the reference.
			got := cellResults(t, runSweepHTTP(t, ts.URL, spec))
			for i, c := range got {
				if string(c.Result.Bytes()) != want[i] {
					t.Fatalf("cell %d differs after kill/resume:\n%s\n%s", i, c.Result.Bytes(), want[i])
				}
			}
			gotJournal, err := os.ReadFile(filepath.Join(dir, filepath.Base(refJournals[0])))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotJournal, wantJournal) {
				t.Fatalf("resumed journal differs from uninterrupted:\n--- want ---\n%s--- got ---\n%s", wantJournal, gotJournal)
			}
		})
	}
}

// TestServerJournalByteFlipResimulates: a journal damaged in place — one
// digit of a recorded cycle count changed, the line still valid JSON — must
// not be replayed to the client or into the cache. A fresh server over the
// damaged file replays the records before the damage, re-simulates from the
// damaged cell on, and ends with the stream and the journal of an
// uninterrupted run.
func TestServerJournalByteFlipResimulates(t *testing.T) {
	spec := smallSpec()
	refDir := t.TempDir()
	refTS, _ := newTestServer(t, Config{Workers: 1, JournalDir: refDir})
	want := resultBytes(t, cellResults(t, runSweepHTTP(t, refTS.URL, spec)))
	journals, err := filepath.Glob(filepath.Join(refDir, "*.jsonl"))
	if err != nil || len(journals) != 1 {
		t.Fatalf("reference journals: %v, %v", journals, err)
	}
	wantJournal, err := os.ReadFile(journals[0])
	if err != nil {
		t.Fatal(err)
	}

	// Damage cell 1's record (line 2, after the header and cell 0): the last
	// digit of its cycle count becomes the neighbouring digit.
	const damagedCell = 1
	lines := bytes.SplitAfter(bytes.Clone(wantJournal), []byte("\n"))
	line := lines[1+damagedCell]
	at := bytes.Index(line, []byte(`"cycles":`))
	if at < 0 {
		t.Fatalf("no cycle count in journal line %q", line)
	}
	for at += len(`"cycles":`); line[at+1] >= '0' && line[at+1] <= '9'; at++ {
	}
	line[at] ^= 1
	dir := t.TempDir()
	path := filepath.Join(dir, filepath.Base(journals[0]))
	if err := os.WriteFile(path, bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}

	ts, _ := newTestServer(t, Config{Workers: 1, JournalDir: dir})
	for i, c := range cellResults(t, runSweepHTTP(t, ts.URL, spec)) {
		if c.Replay != (i < damagedCell) || c.Cached {
			t.Errorf("cell %d: replayed=%v cached=%v; only the cells before the damage may replay", i, c.Replay, c.Cached)
		}
		if string(c.Result.Bytes()) != want[i] {
			t.Errorf("cell %d differs from the reference:\n%s\n%s", i, c.Result.Bytes(), want[i])
		}
	}
	gotJournal, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJournal, wantJournal) {
		t.Fatalf("repaired journal differs from the uninterrupted run's:\n--- want ---\n%s--- got ---\n%s", wantJournal, gotJournal)
	}
}

// slowSpec is a sweep whose cells each simulate for a few hundred
// milliseconds of wall time — long enough that a stop lands mid-cell — one
// fault-free and one with an active chaos profile.
func slowSpec() Spec {
	return Spec{
		Kernels: []string{"viterbi"},
		N:       96, Loops: 8,
		Threads:   4,
		Chaos:     []string{"none", "spurious-fill"},
		MaxCycles: 100_000_000,
	}
}

// TestStoppedCellIsTimeoutOrCanceled: a cell stopped from outside is never
// a result. Over its own wall-clock deadline it reports status "timeout"
// with its last-progress cycle (and is not cached); stopped because the
// sweep was torn down mid-cell it leaves no journal record at all, so the
// resubmission re-runs it instead of replaying a poisoned entry.
func TestStoppedCellIsTimeoutOrCanceled(t *testing.T) {
	dir := t.TempDir()
	ts, s := newTestServer(t, Config{Workers: 1, JournalDir: dir})

	timed := slowSpec()
	timed.DeadlineMS = 1
	timed.Recompute = true // keep this pass out of the journal
	for i, c := range cellResults(t, runSweepHTTP(t, ts.URL, timed)) {
		if c.Result.Status != "timeout" || !strings.Contains(c.Result.Error, "last progress at cycle") {
			t.Errorf("cell %d over its deadline: %+v, want status timeout naming its last-progress cycle", i, c.Result)
		}
	}

	// Tear the sweep down as soon as it is accepted: cell 0 has the only
	// slot and is mid-simulation.
	ctx, cancel := context.WithCancel(context.Background())
	resp, err := postSweep(t, ctx, ts.URL, slowSpec())
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	if _, err := bufio.NewReader(resp.Body).ReadString('\n'); err != nil { // the accepted line
		cancel()
		t.Fatal(err)
	}
	cancel()
	resp.Body.Close()
	waitInflight(t, s, 0) // the canceled sweep has left the house
	journals, err := filepath.Glob(filepath.Join(dir, "*.jsonl"))
	if err != nil || len(journals) != 1 {
		t.Fatalf("journals = %v, %v", journals, err)
	}
	journal, err := os.ReadFile(journals[0])
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(journal, []byte("\n")); n != 1 {
		t.Fatalf("journal of a sweep canceled inside its first cell has %d lines, want the header alone:\n%s", n, journal)
	}

	for i, c := range cellResults(t, runSweepHTTP(t, ts.URL, slowSpec())) {
		if c.Result.Status != "ok" || c.Replay || c.Cached {
			t.Errorf("cell %d after the stops: status %s replayed=%v cached=%v, want a fresh ok", i, c.Result.Status, c.Replay, c.Cached)
		}
	}
}

// TestServerOverload429: with the house full of admitted sweeps, a new
// submission is rejected with 429 and a Retry-After hint, while the
// admitted sweep runs to completion untouched.
func TestServerOverload429(t *testing.T) {
	ts, s := newTestServer(t, Config{Workers: 1, MaxSweeps: 1, RetryAfter: 2 * time.Second})
	spec := smallSpec()
	spec.Seeds = []uint64{1, 2, 3, 4}

	// Occupy the only worker slot so the first sweep stays parked in its
	// admission probe — admitted (holding the one seat) but not started —
	// for as long as the test needs the house full.
	s.slots <- struct{}{}
	done := make(chan []streamLine, 1)
	go func() { done <- runSweepHTTP(t, ts.URL, spec) }()

	waitInflight(t, s, 1) // the first sweep holds the only seat

	over := smallSpec()
	resp, err := postSweep(t, context.Background(), ts.URL, over)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload answered %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Fatalf("Retry-After = %q, want \"2\"", ra)
	}
	var e struct {
		Error *Error `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == nil || e.Error.Code != "overload" {
		t.Fatalf("overload body = %+v, %v", e.Error, err)
	}

	// Free the worker pool: the admitted sweep must now run to completion.
	<-s.slots
	cells := cellResults(t, <-done)
	if len(cells) != 8 {
		t.Fatalf("admitted sweep finished %d cells, want 8", len(cells))
	}
	for _, c := range cells {
		if c.Result.Status != "ok" {
			t.Fatalf("admitted sweep degraded under overload: %+v", c.Result)
		}
	}
	s.mu.Lock()
	st := s.stats
	inflight := len(s.tickets)
	s.mu.Unlock()
	if st.Rejected != 1 || inflight != 0 {
		t.Fatalf("rejected=%d inflight=%d, want 1 and 0", st.Rejected, inflight)
	}
}

// TestAdmitShedsOldestDeadline exercises the shedding policy directly:
// with the house full, the queued sweep with the oldest queue deadline
// yields its seat (and has its context canceled); started sweeps and
// deadline-less queued sweeps are untouchable, so with no candidate the
// newcomer is rejected.
func TestAdmitShedsOldestDeadline(t *testing.T) {
	s, err := NewServer(Config{MaxSweeps: 2})
	if err != nil {
		t.Fatal(err)
	}
	mkTicket := func(deadline time.Time) (*ticket, context.Context) {
		ctx, cancel := context.WithCancel(context.Background())
		return &ticket{deadline: deadline, cancel: cancel}, ctx
	}
	started, _ := mkTicket(time.Now().Add(time.Minute))
	if !s.admit(started) {
		t.Fatal("first admit failed")
	}
	s.markStarted(started)
	queued, queuedCtx := mkTicket(time.Now().Add(time.Hour))
	if !s.admit(queued) {
		t.Fatal("second admit failed")
	}

	newcomer, newcomerCtx := mkTicket(time.Time{})
	if !s.admit(newcomer) {
		t.Fatal("full house with a sheddable queued sweep rejected the newcomer")
	}
	if queuedCtx.Err() == nil {
		t.Fatal("shed sweep's context not canceled")
	}
	if newcomerCtx.Err() != nil {
		t.Fatal("newcomer canceled")
	}

	// House now: started + deadline-less newcomer. Nothing is sheddable.
	another, _ := mkTicket(time.Now())
	if s.admit(another) {
		t.Fatal("admitted past MaxSweeps with no sheddable sweep")
	}
	s.mu.Lock()
	st := s.stats
	s.mu.Unlock()
	if st.Shed != 1 || st.Rejected != 1 {
		t.Fatalf("shed=%d rejected=%d, want 1 and 1", st.Shed, st.Rejected)
	}
}

// TestBadSpecHTTP: malformed and invalid specs are structured 400s.
func TestBadSpecHTTP(t *testing.T) {
	ts, _ := newTestServer(t, Config{})
	for _, tc := range []struct{ name, body, code string }{
		{"bad kernel", `{"kernels": ["nope"]}`, "bad-kernel"},
		{"garbled body", `{"kern`, "bad-spec"},
		{"unknown field", `{"kernels":["microbench"],"thread":4}`, "bad-spec"},
		{"size the constructor rejects", `{"kernels":["livermore2"],"n":100}`, "bad-kernel"},
		{"absurd n", `{"kernels":["livermore1"],"n":4000000000}`, "bad-spec"},
		{"absurd loops", `{"kernels":["microbench"],"loops":4000000000}`, "bad-spec"},
		{"deadline past time.Duration", `{"kernels":["microbench"],"deadline_ms":18446744073710}`, "bad-spec"},
		{"queue deadline past time.Duration", `{"kernels":["microbench"],"queue_deadline_ms":9223372036855}`, "bad-spec"},
	} {
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Errorf("%s: no structured answer: %v", tc.name, err)
			continue
		}
		var e struct {
			Error *Error `json:"error"`
		}
		derr := json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || derr != nil || e.Error == nil || e.Error.Code != tc.code {
			t.Errorf("%s: answered %d, body %+v (%v); want 400 with code %q", tc.name, resp.StatusCode, e.Error, derr, tc.code)
		}
	}
}

// TestServerCreatesJournalDir: a server pointed at a journal path that does
// not exist yet creates it, journals there and resumes from it after a
// restart; a path that cannot be created fails construction instead of
// answering every sweep with a lone error line.
func TestServerCreatesJournalDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "not", "yet", "there")
	spec := smallSpec()

	ts, _ := newTestServer(t, Config{Workers: 2, JournalDir: dir})
	want := resultBytes(t, cellResults(t, runSweepHTTP(t, ts.URL, spec)))
	if journals, err := filepath.Glob(filepath.Join(dir, "*.jsonl")); err != nil || len(journals) != 1 {
		t.Fatalf("journals = %v, %v", journals, err)
	}

	// A new server (empty cache) over the same directory replays the journal.
	ts2, _ := newTestServer(t, Config{Workers: 2, JournalDir: dir})
	for i, c := range cellResults(t, runSweepHTTP(t, ts2.URL, spec)) {
		if !c.Replay {
			t.Fatalf("cell %d re-simulated instead of replayed from the journal", i)
		}
		if string(c.Result.Bytes()) != want[i] {
			t.Fatalf("cell %d replayed bytes differ:\n%s\n%s", i, c.Result.Bytes(), want[i])
		}
	}

	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	var pathErr *os.PathError
	if _, err := NewServer(Config{JournalDir: filepath.Join(file, "journal")}); !errors.As(err, &pathErr) {
		t.Fatalf("journal dir under a regular file: err = %v, want a wrapped *os.PathError", err)
	}
}

// TestConcurrentIdenticalSweeps: many clients submitting the same spec at
// once must all get the same bytes, with the journal serialized per sweep
// hash (no interleaved writes, no torn file).
func TestConcurrentIdenticalSweeps(t *testing.T) {
	dir := t.TempDir()
	ts, s := newTestServer(t, Config{Workers: 2, MaxSweeps: 8, JournalDir: dir})
	spec := smallSpec()
	spec.Chaos = []string{"none"}

	const clients = 4
	results := make([][]string, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = resultBytes(t, cellResults(t, runSweepHTTP(t, ts.URL, spec)))
		}()
	}
	wg.Wait()
	for i := 1; i < clients; i++ {
		if fmt.Sprint(results[i]) != fmt.Sprint(results[0]) {
			t.Fatalf("client %d saw different bytes:\n%v\n%v", i, results[i], results[0])
		}
	}
	journals, err := filepath.Glob(filepath.Join(dir, "*.jsonl"))
	if err != nil || len(journals) != 1 {
		t.Fatalf("journals = %v, %v", journals, err)
	}
	// The per-hash journal gate lives only while a sweep holds or waits for
	// it. A client sees its "done" line just before its handler returns the
	// gate, hence the short wait.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		s.mu.Lock()
		n := len(s.journals)
		s.mu.Unlock()
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d journal gates left in the server's map after every sweep finished", n)
		}
	}
}
