package simd

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/barrier"
	"repro/internal/harness"
)

// Config tunes the server.
type Config struct {
	// Workers bounds how many cells simulate concurrently across all
	// sweeps (default 4): the slot set every sweep's Runner shares. It is
	// the backpressure point — admitted sweeps queue for slots, in cell
	// order, instead of growing goroutines without bound.
	Workers int
	// MaxSweeps bounds how many sweeps may be admitted at once — running
	// or queued for their first worker slot (default 8). A full house
	// sheds the queued sweep with the oldest queue deadline; failing
	// that, the request is rejected with 429 and Retry-After.
	MaxSweeps int
	// Limits bounds what a single spec may ask for.
	Limits Limits
	// CacheDir persists the content-addressed result cache; empty keeps
	// it in memory only.
	CacheDir string
	// JournalDir, when non-empty, journals every sweep to
	// <JournalDir>/<sweep-hash>.jsonl through the harness's
	// crash-resilient journal. Resubmitting a spec after a crash resumes
	// its journal: finished cells replay, missing cells re-run, and the
	// completed journal is byte-identical to an uninterrupted run's.
	JournalDir string
	// RetryAfter is the hint sent with 429 responses (default 1s).
	RetryAfter time.Duration
}

// DefaultConfig returns the standard server tuning.
func DefaultConfig() Config {
	return Config{
		Workers:    4,
		MaxSweeps:  8,
		Limits:     DefaultLimits(),
		RetryAfter: time.Second,
	}
}

// ticket is one admitted sweep's seat. Until the sweep wins its first
// worker slot it is "queued" and — if it declared a queue deadline —
// sheddable, oldest deadline first, by a newcomer that finds the house
// full.
type ticket struct {
	deadline time.Time // zero: no queue deadline, never sheddable
	started  bool
	cancel   context.CancelFunc
}

// Stats is the /v1/stats payload.
type Stats struct {
	Accepted    int64 `json:"accepted"`
	Completed   int64 `json:"completed"`
	Rejected    int64 `json:"rejected"` // 429s
	Shed        int64 `json:"shed"`     // queued sweeps evicted for newcomers
	Inflight    int   `json:"inflight"` // admitted right now
	Workers     int   `json:"workers"`
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	OracleOK    int64 `json:"oracle_ok"` // recomputations confirmed byte-identical
	Coalesced   int64 `json:"coalesced"` // cells answered by another cell's simulation in the same sweep
}

// Server is the simulation service. Create with NewServer; it implements
// http.Handler.
type Server struct {
	cfg   Config
	cache *Cache
	slots chan struct{}
	mux   *http.ServeMux

	mu       sync.Mutex
	tickets  map[*ticket]struct{}
	journals map[string]*journalGate // per sweep hash, while held or waited for
	stats    Stats
}

// NewServer builds a server from cfg, filling zero fields with defaults.
func NewServer(cfg Config) (*Server, error) {
	def := DefaultConfig()
	if cfg.Workers <= 0 {
		cfg.Workers = def.Workers
	}
	if cfg.MaxSweeps <= 0 {
		cfg.MaxSweeps = def.MaxSweeps
	}
	if cfg.Limits == (Limits{}) {
		cfg.Limits = def.Limits
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = def.RetryAfter
	}
	cache, err := NewCache(cfg.CacheDir)
	if err != nil {
		return nil, err
	}
	if cfg.JournalDir != "" {
		if err := os.MkdirAll(cfg.JournalDir, 0o755); err != nil {
			return nil, fmt.Errorf("simd: journal dir: %w", err)
		}
	}
	s := &Server{
		cfg:      cfg,
		cache:    cache,
		slots:    make(chan struct{}, cfg.Workers),
		tickets:  make(map[*ticket]struct{}),
		journals: make(map[string]*journalGate),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/sweep", s.handleSweep)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.HandleFunc("/v1/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return s, nil
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// admit seats a sweep, shedding a stale queued one if the house is full.
func (s *Server) admit(t *ticket) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.tickets) >= s.cfg.MaxSweeps {
		// Shed oldest-deadline-first: among sweeps still queued for their
		// first worker slot, the one whose queue deadline is nearest (or
		// furthest past) is the likeliest to miss it anyway, so it yields
		// its seat. Started sweeps and queued sweeps that declared no
		// deadline are never shed.
		var victim *ticket
		for o := range s.tickets {
			if o.started || o.deadline.IsZero() {
				continue
			}
			if victim == nil || o.deadline.Before(victim.deadline) {
				victim = o
			}
		}
		if victim == nil {
			s.stats.Rejected++
			return false
		}
		victim.cancel()
		delete(s.tickets, victim)
		s.stats.Shed++
	}
	s.tickets[t] = struct{}{}
	s.stats.Accepted++
	return true
}

func (s *Server) release(t *ticket) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.tickets[t]; ok {
		delete(s.tickets, t)
		s.stats.Completed++
	}
}

func (s *Server) markStarted(t *ticket) {
	s.mu.Lock()
	t.started = true
	s.mu.Unlock()
}

// journalGate serializes the journal of one sweep hash; refs counts its
// holder and waiters so the last one out can drop it from the map.
type journalGate struct {
	mu   sync.Mutex
	refs int // guarded by Server.mu
}

// lockJournal takes exclusive use of one sweep hash's journal, so two
// concurrent submissions of the same spec cannot interleave writes to one
// file (the second waits and then resumes off the first's records). The
// returned function gives it back.
func (s *Server) lockJournal(hash string) (unlock func()) {
	s.mu.Lock()
	g, ok := s.journals[hash]
	if !ok {
		g = &journalGate{}
		s.journals[hash] = g
	}
	g.refs++
	s.mu.Unlock()
	g.mu.Lock()
	return func() {
		g.mu.Unlock()
		s.mu.Lock()
		if g.refs--; g.refs == 0 {
			delete(s.journals, hash)
		}
		s.mu.Unlock()
	}
}

func writeError(w http.ResponseWriter, status int, e *Error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(struct {
		Error *Error `json:"error"`
	}{e})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	st := s.stats
	st.Inflight = len(s.tickets)
	st.Workers = s.cfg.Workers
	s.mu.Unlock()
	st.CacheHits, st.CacheMisses, st.OracleOK = s.cache.Stats()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(st)
}

// decodeSpec parses and normalizes a request's spec, answering 4xx itself
// on failure.
func (s *Server) decodeSpec(w http.ResponseWriter, r *http.Request, into *Spec) bool {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, errf("bad-spec", "", "POST required"))
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		writeError(w, http.StatusBadRequest, errf("bad-spec", "", "decoding request: %v", err))
		return false
	}
	return true
}

// handleSweep admits, runs, and streams one sweep as NDJSON: an "accepted"
// line, one "cell" line per cell in index order, then "done" — or a
// terminal "error" line if the sweep is torn down mid-flight.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	if !s.decodeSpec(w, r, &spec) {
		return
	}
	sw, serr := Normalize(spec, s.cfg.Limits)
	if serr != nil {
		writeError(w, http.StatusBadRequest, serr)
		return
	}

	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	t := &ticket{cancel: cancel}
	if spec.QueueDeadlineMS > 0 {
		t.deadline = time.Now().Add(time.Duration(spec.QueueDeadlineMS) * time.Millisecond)
	}
	if !s.admit(t) {
		w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
		writeError(w, http.StatusTooManyRequests,
			errf("overload", "", "%d sweeps admitted and none sheddable; retry later", s.cfg.MaxSweeps))
		return
	}
	defer s.release(t)

	// Admission probe: the sweep must win one worker slot within its queue
	// deadline before anything streams. While it waits here it is the
	// shedding pool's prey; once through, it is started and safe.
	var queueC <-chan time.Time
	if !t.deadline.IsZero() {
		qt := time.NewTimer(time.Until(t.deadline))
		defer qt.Stop()
		queueC = qt.C
	}
	select {
	case s.slots <- struct{}{}:
		<-s.slots
	case <-queueC:
		writeError(w, http.StatusServiceUnavailable,
			errf("overload", "queue_deadline_ms", "no worker slot within the queue deadline"))
		return
	case <-ctx.Done():
		writeError(w, http.StatusServiceUnavailable,
			errf("shed", "", "sweep shed while queued (or client gone)"))
		return
	}
	s.markStarted(t)

	w.Header().Set("Content-Type", "application/x-ndjson")
	s.runSweep(ctx, sw, newStreamWriter(w))
}

// streamLine is one NDJSON response line.
type streamLine struct {
	Type   string  `json:"type"` // accepted | cell | done | error
	Sweep  string  `json:"sweep,omitempty"`
	Cells  int     `json:"cells,omitempty"`
	Index  *int    `json:"index,omitempty"`
	Cached bool    `json:"cached,omitempty"`   // served from the content cache
	Replay bool    `json:"replayed,omitempty"` // served from the resumed journal
	Result *Result `json:"result,omitempty"`
	OK     int     `json:"ok,omitempty"`
	Errors int     `json:"errors,omitempty"`
	Error  *Error  `json:"error,omitempty"`
}

type streamWriter struct {
	enc   *json.Encoder
	flush func()
}

func newStreamWriter(w http.ResponseWriter) *streamWriter {
	sw := &streamWriter{enc: json.NewEncoder(w), flush: func() {}}
	if f, ok := w.(http.Flusher); ok {
		sw.flush = f.Flush
	}
	return sw
}

func (sw *streamWriter) line(l streamLine) {
	sw.enc.Encode(l)
	sw.flush()
}

// outcome is one cell's terminal state on its way to delivery.
type outcome struct {
	res      Result
	cached   bool
	replayed bool
	canceled bool // sweep teardown: do not journal, abort the stream
}

// cached returns the content cache's result for a cell, unless the sweep is
// a recompute pass (which exists to re-simulate).
func (s *Server) cached(sw *Sweep, c Cell) (Result, bool) {
	if sw.Spec.Recompute {
		return Result{}, false
	}
	b, ok := s.cache.Get(c.Hash)
	if !ok {
		return Result{}, false
	}
	res, err := ParseResult(b)
	return res, err == nil
}

// store enters a fresh or replayed result into the content cache — an
// oracle check when the cache already holds the hash, in which case a
// mismatch turns the result into an error.
func (s *Server) store(c Cell, res Result) Result {
	if res.Cacheable() {
		if err := s.cache.Put(c.Hash, res.Bytes()); err != nil {
			res.Status = harness.StatusError
			res.Error = err.Error()
		}
	}
	return res
}

// follow answers a cell with the result of its lead, a cell of the same
// sweep that differs from it only in the seed of a profile that never reads
// it: the lead's result under the follower's own key and hash, entered into
// the cache like a fresh one.
func (s *Server) follow(c Cell, res Result) outcome {
	res.Key, res.Hash = c.Key, c.Hash
	s.mu.Lock()
	s.stats.Coalesced++
	s.mu.Unlock()
	return outcome{res: s.store(c, res)}
}

// runLocal simulates one cell on this process, under a slot the Runner
// already holds for it.
func (s *Server) runLocal(ctx context.Context, c Cell) outcome {
	res, err := RunCell(ctx, c)
	if harness.Canceled(ctx, err) {
		return outcome{canceled: true}
	}
	return outcome{res: s.store(c, res)}
}

// runSweep executes a validated sweep on one harness.Runner over the
// server-wide slots. Journal replays and cache hits are resolved without a
// slot; local cells that differ only in the seed of a fault-free profile
// share one simulation (the first is the lead, the rest follow it); every
// other cell starts in index order as slots free up; and the Runner
// delivers every outcome in strict cell-index order to the one callback
// that journals and streams it, so neither the journal nor the stream needs
// an ordering of its own.
func (s *Server) runSweep(ctx context.Context, sw *Sweep, out *streamWriter) {
	var j *harness.Journal
	// Recompute runs are verification passes, not production sweeps: they
	// bypass the journal entirely (replaying it would defeat the point of
	// re-simulating) and leave it untouched.
	if s.cfg.JournalDir != "" && !sw.Spec.Recompute {
		defer s.lockJournal(sw.Hash)()
		path := filepath.Join(s.cfg.JournalDir, sw.Hash+".jsonl")
		var err error
		// resume=true also covers the fresh-file case: the journal starts
		// over with just its spec header.
		j, err = harness.OpenJournal(path, true, sw.SpecString())
		if err != nil {
			// ErrJournalSpec here means a foreign file: the file is named
			// by the spec hash, so a legitimate mismatch cannot happen.
			out.line(streamLine{Type: "error", Error: errf("internal", "", "journal: %v", err)})
			return
		}
		defer j.Close()
	}

	out.line(streamLine{Type: "accepted", Sweep: sw.Hash, Cells: len(sw.Cells)})

	outs := make([]outcome, len(sw.Cells))
	r := harness.NewRunner(ctx, s.slots, len(sw.Cells))
	var local []int
	// A profile that injects nothing never reads the seed (the chaos
	// attempt consults it only under Profile.Active), and every identity
	// field but these three and the seed is sweep-wide. A recompute pass
	// simulates every seed, so the oracle keeps re-checking that claim.
	type seedFree struct {
		kernel  string
		kind    barrier.Kind
		profile string
	}
	leads := make(map[seedFree]int)
	follows := make(map[int]int) // follower → lead
	for i, c := range sw.Cells {
		if j != nil {
			if e, ok := j.Done(c.Key); ok {
				outs[i] = s.replayOutcome(c, e)
				r.Resolve(i)
				continue
			}
		}
		if res, ok := s.cached(sw, c); ok {
			outs[i] = outcome{res: res, cached: true}
			r.Resolve(i)
			continue
		}
		if !sw.Spec.Recompute && !c.Profile.Active() {
			id := seedFree{c.Kernel, c.Kind, c.Profile.Name}
			if l, ok := leads[id]; ok {
				follows[i] = l
				r.Follow(i, l)
				continue
			}
			leads[id] = i
		}
		local = append(local, i)
	}

	journalable := j != nil // false once a journal write has failed
	nOK, nErr := 0, 0
	err := r.Run(local, func(i int) { outs[i] = s.runLocal(ctx, sw.Cells[i]) }, func(i int) error {
		if l, ok := follows[i]; ok {
			// The lead has a lower index, so a canceled lead has already
			// ended delivery, taking its followers with it.
			outs[i] = s.follow(sw.Cells[i], outs[l].res)
		}
		cur := outs[i]
		if cur.canceled {
			// Torn down mid-sweep: nothing at or past this index is
			// journaled or streamed, so the journal stays a clean prefix.
			return context.Canceled
		}
		if journalable && !cur.replayed {
			e := harness.Entry{Key: cur.res.Key, Status: cur.res.Status,
				Error: cur.res.Error, Data: cur.res.Bytes()}
			if err := j.Write(e); err != nil {
				out.line(streamLine{Type: "error", Error: errf("internal", "", "journal write: %v", err)})
				journalable = false
			}
		}
		if cur.res.Status == harness.StatusOK {
			nOK++
		} else {
			nErr++
		}
		out.line(streamLine{Type: "cell", Index: &i, Cached: cur.cached, Replay: cur.replayed, Result: &cur.res})
		return nil
	})
	if err != nil || ctx.Err() != nil {
		out.line(streamLine{Type: "error", Error: errf("canceled", "",
			"sweep torn down after %d of %d cells", nOK+nErr, len(sw.Cells))})
		return
	}
	out.line(streamLine{Type: "done", Sweep: sw.Hash, Cells: len(sw.Cells), OK: nOK, Errors: nErr})
}

// replayOutcome turns a resumed journal entry back into a cell outcome,
// feeding ok results through the cache (an oracle check when the cache
// already holds the hash).
func (s *Server) replayOutcome(c Cell, e harness.Entry) outcome {
	res := Result{Key: c.Key, Hash: c.Hash, Status: e.Status, Error: e.Error}
	if len(e.Data) > 0 {
		var err error
		if res, err = ParseResult(e.Data); err != nil {
			res = Result{Key: c.Key, Hash: c.Hash, Status: harness.StatusError,
				Error: fmt.Sprintf("journal replay: %v", err)}
		}
	}
	return outcome{replayed: true, res: s.store(c, res)}
}
