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
		{"cycle budget over limit", func(s *Spec) { s.MaxCycles = lim.MaxCycles + 1 }, "bad-spec"},
	}
	for _, tc := range cases {
		spec := smallSpec()
		tc.mut(&spec)
		_, err := Normalize(spec, lim)
		if err == nil || err.Code != tc.code {
			t.Errorf("%s: err = %v, want code %q", tc.name, err, tc.code)
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

func TestCacheOracle(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put("h1", []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	if b, ok := c.Get("h1"); !ok || string(b) != `{"v":1}` {
		t.Fatalf("get = %q, %v", b, ok)
	}
	if err := c.Put("h1", []byte(`{"v":1}`)); err != nil {
		t.Fatalf("identical re-put flagged: %v", err)
	}
	if err := c.Put("h1", []byte(`{"v":2}`)); !errors.Is(err, ErrOracle) {
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
	if b, ok := c2.Get("h1"); !ok || string(b) != `{"v":1}` {
		t.Fatalf("disk tier get = %q, %v", b, ok)
	}
	if err := c2.Put("h1", []byte(`{"v":3}`)); !errors.Is(err, ErrOracle) {
		t.Fatalf("divergent put against disk tier: err = %v, want ErrOracle", err)
	}
}

// --- HTTP helpers ---

func newTestServer(t *testing.T, cfg Config) (*httptest.Server, *Server) {
	t.Helper()
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts, s
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

	// Wait until the first sweep holds the only seat.
	deadline := time.Now().Add(10 * time.Second)
	for {
		s.mu.Lock()
		inflight := len(s.tickets)
		s.mu.Unlock()
		if inflight == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first sweep never admitted")
		}
		time.Sleep(5 * time.Millisecond)
	}

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

// TestShardFanoutAndLoss: cells place deterministically on a two-entry
// ring (this process + one remote shard); with the shard up every cell
// completes, and with it down its cells come back attributed "missing"
// while local cells still complete — degradation, not failure.
func TestShardFanoutAndLoss(t *testing.T) {
	shardTS, _ := newTestServer(t, Config{Workers: 2})

	spec := smallSpec()
	spec.Seeds = []uint64{1, 2, 3, 4, 5, 6}
	spec.Chaos = []string{"none"}

	// Determine the expected placement up front.
	sw, serr := Normalize(spec, DefaultLimits())
	if serr != nil {
		t.Fatal(serr)
	}
	remote := 0
	for _, c := range sw.Cells {
		if shardIndex(c.Hash, 2) == 1 {
			remote++
		}
	}
	if remote == 0 || remote == len(sw.Cells) {
		t.Fatalf("degenerate placement (%d/%d remote): pick different seeds", remote, len(sw.Cells))
	}

	cfg := Config{Workers: 2, Shards: []string{ShardLocal, shardTS.URL},
		ShardTimeout: 10 * time.Second, ShardRetries: 1, ShardBackoff: 10 * time.Millisecond}
	ts, _ := newTestServer(t, cfg)
	cells := cellResults(t, runSweepHTTP(t, ts.URL, spec))
	sawRemote := 0
	for _, c := range cells {
		if c.Result.Status != "ok" {
			t.Fatalf("cell %s failed: %+v", c.Result.Key, c.Result)
		}
		if c.Shard != "" {
			sawRemote++
		}
	}
	if sawRemote != remote {
		t.Fatalf("%d cells ran remotely, placement says %d", sawRemote, remote)
	}

	// Kill the shard: its cells degrade to attributed missing.
	shardTS.Close()
	lossTS, _ := newTestServer(t, cfg)
	lines := runSweepHTTP(t, lossTS.URL, spec)
	last := lines[len(lines)-1]
	if last.Type != "done" || last.Miss != remote || last.OK != len(sw.Cells)-remote {
		t.Fatalf("done after shard loss = %+v, want ok=%d missing=%d", last, len(sw.Cells)-remote, remote)
	}
	for _, l := range lines[1 : len(lines)-1] {
		switch {
		case l.Shard != "":
			if l.Result.Status != "missing" || !strings.Contains(l.Result.Error, shardTS.URL) {
				t.Fatalf("lost-shard cell not attributed: %+v", l.Result)
			}
		default:
			if l.Result.Status != "ok" {
				t.Fatalf("local cell failed during shard loss: %+v", l.Result)
			}
		}
	}
}

// TestCellsEndpoint: the shard-internal endpoint runs an explicit index
// subset and rejects out-of-range indices.
func TestCellsEndpoint(t *testing.T) {
	ts, _ := newTestServer(t, Config{Workers: 2})
	spec := smallSpec()
	sw, serr := Normalize(spec, DefaultLimits())
	if serr != nil {
		t.Fatal(serr)
	}

	post := func(req CellsRequest) *http.Response {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/cells", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	resp := post(CellsRequest{Spec: spec, Indices: []int{2, 0}})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cells answered %d", resp.StatusCode)
	}
	var out []Result
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0].Key != sw.Cells[2].Key || out[1].Key != sw.Cells[0].Key {
		t.Fatalf("cells = %+v, want keys %s, %s", out, sw.Cells[2].Key, sw.Cells[0].Key)
	}
	for _, r := range out {
		if r.Status != "ok" {
			t.Fatalf("cell %s failed: %+v", r.Key, r)
		}
	}

	bad := post(CellsRequest{Spec: spec, Indices: []int{99}})
	defer bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-range indices answered %d, want 400", bad.StatusCode)
	}
}

// TestBadSpecHTTP: malformed and invalid specs are structured 400s.
func TestBadSpecHTTP(t *testing.T) {
	ts, _ := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(`{"kernels": ["nope"]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad kernel answered %d, want 400", resp.StatusCode)
	}
	var e struct {
		Error *Error `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == nil || e.Error.Code != "bad-kernel" {
		t.Fatalf("error body = %+v, %v", e.Error, err)
	}

	garbled, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(`{"kern`))
	if err != nil {
		t.Fatal(err)
	}
	defer garbled.Body.Close()
	if garbled.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbled body answered %d, want 400", garbled.StatusCode)
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
