package simd

import (
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/harness"
	"repro/internal/kernels"
)

// Result is one cell's outcome on the wire and in the journal. It carries
// no wall-clock data — only deterministic simulator state — so the bytes
// of an "ok" result are a pure function of the cell's content hash, which
// is what makes the cache a regression oracle and kill/resume byte-exact.
type Result struct {
	Key  string `json:"key"`
	Hash string `json:"hash"`
	// Status: ok | error | timeout | panic.
	Status string `json:"status"`
	// Outcome (status ok only): identical | degraded | fault — the chaos
	// contract's three acceptable endings.
	Outcome  string `json:"outcome,omitempty"`
	Cycles   uint64 `json:"cycles,omitempty"`
	Attempts int    `json:"attempts,omitempty"`
	Injected uint64 `json:"injected,omitempty"`
	Report   string `json:"report,omitempty"`
	Error    string `json:"error,omitempty"`
}

// Bytes returns the canonical encoding of the result — the unit of
// caching, journaling, and byte-identity comparison.
func (r Result) Bytes() []byte {
	b, err := json.Marshal(r)
	if err != nil {
		// Result is a plain struct of marshalable fields.
		panic(fmt.Sprintf("simd: encoding result: %v", err))
	}
	return b
}

// ParseResult decodes canonical result bytes.
func ParseResult(b []byte) (Result, error) {
	var r Result
	if err := json.Unmarshal(b, &r); err != nil {
		return Result{}, fmt.Errorf("simd: decoding result: %w", err)
	}
	return r, nil
}

// Cacheable reports whether the result may enter the content-addressed
// cache: only clean completions are pure functions of the cell hash.
// Timeouts depend on wall-clock deadlines, panics and internal errors on
// simulator state that a fix would change.
func (r Result) Cacheable() bool { return r.Status == harness.StatusOK }

// RunCell executes one cell through the chaos harness: the degradation
// policy with fault injection per the cell's profile ("none" is the plain
// verified run), per-cell panic recovery, and the wall-clock deadline.
// The returned error is the raw harness error (nil for a clean cell);
// harness.Canceled tells sweep teardown apart from a per-cell deadline.
func RunCell(ctx context.Context, c Cell) (Result, error) {
	res := Result{Key: c.Key, Hash: c.Hash}
	k, err := kernels.New(c.Kernel, c.N, c.Loops)
	if err != nil {
		// Normalize already built this kernel; only a registry change
		// between then and now could land here.
		res.Status = "error"
		res.Error = err.Error()
		return res, err
	}
	cell, err := harness.RunChaosCell(k, c.Kind, c.Profile, c.Seed, c.Threads, harness.Options{
		Verify:       true,
		MaxCycles:    c.MaxCycles,
		Fabric:       c.Fabric,
		Workers:      1,
		FilterCap:    c.FilterCap,
		NoFastPath:   c.NoFastPath,
		NoTranslate:  c.NoTranslate,
		Sanitize:     c.Sanitize,
		CellDeadline: c.Deadline,
		Ctx:          ctx,
	})
	res.Status = harness.StatusOf(err)
	res.Outcome = cell.Outcome
	res.Cycles = cell.Cycles
	res.Attempts = cell.Attempts
	res.Injected = cell.Injected
	res.Report = cell.Report
	if err != nil {
		res.Error = err.Error()
	}
	return res, err
}
