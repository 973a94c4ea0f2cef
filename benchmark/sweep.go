package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"repro/internal/simd"
)

// The sweep workload drives simd.Server in-process behind httptest, closed
// loop, over one client connection. Chaos seeds are fixed: the benchmark's
// -seed only reorders the spec's lists, so every seed simulates the same
// cells (see README.md, "What -seed does").
var (
	sweepKernels    = []string{"livermore2", "livermore3", "autcor", "viterbi", "lockreduce", "skewed"}
	sweepMechanisms = []string{"filter-d", "sw-central", "hw-net"}
	sweepChaos      = []string{"none", "bus-delay"}
	sweepSeeds      = []uint64{1, 2}
)

const (
	sweepThreads   = 8
	overlapKernel  = "pipeline" // spec B = spec A plus this kernel
	sweepWorkerCap = 2          // the issue sizes Workers to a 2-vCPU host
)

func sweepSpecs(seed uint64) (a, b simd.Spec) {
	a = simd.Spec{
		Kernels:    shuffled(sweepKernels, seed),
		Mechanisms: shuffled(sweepMechanisms, seed+1),
		Chaos:      sweepChaos,
		Seeds:      sweepSeeds,
		Threads:    sweepThreads,
		Fabric:     "bus",
	}
	b = a
	b.Kernels = append(append([]string(nil), a.Kernels...), overlapKernel)
	return a, b
}

// cellLine is one "cell" line of a sweep's NDJSON stream; result holds the
// server's bytes untouched, the unit of the byte-identity checks.
type cellLine struct {
	cached, replayed bool
	result           []byte
	res              simd.Result
}

// sweepReply is one whole /v1/sweep exchange.
type sweepReply struct {
	cells []cellLine
	wall  time.Duration
	ttfc  time.Duration // request sent to first cell line received
}

// sweepServer is one simd.Server with fresh cache and journal directories.
type sweepServer struct {
	ts     *httptest.Server
	client *http.Client
	dir    string
}

// newSweepServer creates the directories itself: simd.NewServer creates
// CacheDir but not JournalDir, and a missing journal directory does not
// fail the request — it yields HTTP 200 with a single type:"error" line.
func newSweepServer(workDir string, workers int, journal bool) (*sweepServer, error) {
	dir, err := os.MkdirTemp(workDir, "sweep-")
	if err != nil {
		return nil, fmt.Errorf("sweep work dir: %w", err)
	}
	cfg := simd.Config{Workers: workers, CacheDir: filepath.Join(dir, "cache")}
	if journal {
		cfg.JournalDir = filepath.Join(dir, "journal")
		if err := os.Mkdir(cfg.JournalDir, 0o755); err != nil {
			os.RemoveAll(dir)
			return nil, fmt.Errorf("sweep journal dir: %w", err)
		}
	}
	srv, err := simd.NewServer(cfg)
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("simd.NewServer: %w", err)
	}
	s := &sweepServer{ts: httptest.NewServer(srv), dir: dir}
	s.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	return s, nil
}

func (s *sweepServer) close() {
	s.client.CloseIdleConnections()
	s.ts.Close()
	os.RemoveAll(s.dir)
}

// post submits a spec and reads the stream to its "done" line. Any
// type:"error" line, a non-200 answer or a cell count other than want is an
// error: the whole exchange then counts as failed.
func (s *sweepServer) post(spec simd.Spec, want int) (sweepReply, error) {
	var rep sweepReply
	body, err := json.Marshal(spec)
	if err != nil {
		return rep, fmt.Errorf("encoding spec: %w", err)
	}
	t0 := time.Now()
	resp, err := s.client.Post(s.ts.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		return rep, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return rep, fmt.Errorf("sweep answered %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	done := false
	for sc.Scan() {
		var l struct {
			Type   string          `json:"type"`
			Cached bool            `json:"cached"`
			Replay bool            `json:"replayed"`
			Result json.RawMessage `json:"result"`
			Error  json.RawMessage `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return rep, fmt.Errorf("bad stream line %q: %w", sc.Text(), err)
		}
		switch l.Type {
		case "cell":
			if len(rep.cells) == 0 {
				rep.ttfc = time.Since(t0)
			}
			res, err := simd.ParseResult(l.Result)
			if err != nil {
				return rep, err
			}
			rep.cells = append(rep.cells, cellLine{l.Cached, l.Replay, append([]byte(nil), l.Result...), res})
		case "error":
			return rep, fmt.Errorf("stream carried an error line: %s", l.Error)
		case "done":
			done = true
		}
	}
	rep.wall = time.Since(t0)
	if err := sc.Err(); err != nil {
		return rep, fmt.Errorf("reading stream: %w", err)
	}
	if !done || len(rep.cells) != want {
		return rep, fmt.Errorf("stream ended with %d of %d cells (done=%v)", len(rep.cells), want, done)
	}
	return rep, nil
}

func (s *sweepServer) stats() (simd.Stats, error) {
	var st simd.Stats
	resp, err := s.client.Get(s.ts.URL + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("decoding /v1/stats: %w", err)
	}
	return st, nil
}

// sweepDigest condenses the deterministic fields of a result.
func sweepDigest(r simd.Result) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%s %s cycles=%d attempts=%d injected=%d",
		r.Status, r.Outcome, r.Cycles, r.Attempts, r.Injected)))
	return hex.EncodeToString(sum[:8])
}

// sweepRound keeps what a round measures beyond the cold sweep: cold(A),
// replay(A), overlap(B), recompute(A).
type sweepRound struct {
	replay, overlap, recompute time.Duration
	ttfc                       time.Duration // of the cold sweep
	cacheHits, oracleOK        int64
}

// rep runs one round against a fresh server. Everything that can go wrong
// with a cell is counted in failed and explained in errs; the returned error
// is for failures of the benchmark's own set-up.
func (w *sweepInstance) rep(tr *tracer) (sample, error) {
	r := sample{digests: make(map[string]string)}
	srv, err := newSweepServer(w.workDir, w.workers, true)
	if err != nil {
		return r, err
	}
	defer srv.close()
	count := func(s simd.Spec) int { return len(s.Kernels) * len(s.Mechanisms) * len(s.Chaos) * len(s.Seeds) }
	nA, nB := count(w.a), count(w.b)
	tr.nextExec()
	round := tr.begin("sweep.round")
	defer tr.end(round)

	// phase runs one exchange under a span and checks every cell of it.
	cold := make(map[string][]byte)
	phase := func(name string, spec simd.Spec, want int, check func(c cellLine) string) sweepReply {
		s := tr.begin(name)
		rep, err := srv.post(spec, want)
		tr.end(s)
		r.attempted += want
		if err != nil {
			r.failed += want
			r.errs = append(r.errs, fmt.Sprintf("%s: %v", name, err))
			return rep
		}
		for _, c := range rep.cells {
			why := ""
			if c.res.Status != "ok" {
				why = fmt.Sprintf("status %s: %s", c.res.Status, c.res.Error)
			} else {
				why = check(c)
			}
			if why != "" {
				r.failed++
				r.errs = append(r.errs, fmt.Sprintf("%s: %s: %s", name, c.res.Key, why))
			}
			r.digests["sweep/"+c.res.Key] = sweepDigest(c.res)
		}
		return rep
	}
	sameAsCold := func(c cellLine) string {
		if want, ok := cold[c.res.Key]; ok && !bytes.Equal(want, c.result) {
			return fmt.Sprintf("bytes differ from the cold sweep: %s vs %s", c.result, want)
		}
		return ""
	}

	first := phase("simd.cold", w.a, nA, func(c cellLine) string {
		cold[c.res.Key] = c.result
		r.cycles += c.res.Cycles
		if c.cached || c.replayed {
			return "served from a cache that should be empty"
		}
		return ""
	})
	r.wall, r.sim, r.cells, r.round.ttfc = first.wall, first.wall, nA, first.ttfc
	r.round.replay = phase("simd.replay", w.a, nA, func(c cellLine) string {
		if !c.cached && !c.replayed {
			return "re-simulated on replay"
		}
		return sameAsCold(c)
	}).wall
	r.round.overlap = phase("simd.overlap", w.b, nB, func(c cellLine) string {
		if _, shared := cold[c.res.Key]; shared && !c.cached {
			return "shared cell missed the cache"
		}
		return sameAsCold(c)
	}).wall
	// The journal replay above already went through the cache's oracle
	// check once per cell, so the recompute pass is judged on its own delta.
	before, err := srv.stats()
	if err != nil {
		return r, err
	}
	oracle := w.a
	oracle.Recompute, oracle.NoFastPath = true, true
	r.round.recompute = phase("simd.recompute", oracle, nA, sameAsCold).wall
	st, err := srv.stats()
	if err != nil {
		return r, err
	}
	r.round.cacheHits, r.round.oracleOK = st.CacheHits, st.OracleOK-before.OracleOK
	r.attempted++
	if int(r.round.oracleOK) != nA {
		r.failed++
		r.errs = append(r.errs, fmt.Sprintf("/v1/stats: oracle confirmed %d of %d recomputed cells", r.round.oracleOK, nA))
	}
	return r, nil
}
