// Package sanitize is an online invariant checker for the simulated CMP:
// a pluggable set of read-only checkers that walk the live machine at a
// configurable cadence (and, optionally, on every delivered response,
// invalidation and filter release) and turn silent state corruption into
// structured, first-observation fault reports.
//
// The checkers cover the agreement the barrier filter's correctness rests
// on: MSI coherence across the private L1s, directory inclusion (every
// valid L1 line covered by its bank's sharer sets — the inclusion property
// the non-inclusive L2 actually maintains), filter-table consistency, and
// transaction/core liveness. Everything a checker touches goes through
// side-effect-free probes (Peek, Snapshot, DirLookup), so enabling the
// sanitizer is behaviour-invariant: a clean run produces bit-identical
// cycle counts and statistics with checkers on or off, fast path on or off.
package sanitize

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/filter"
	"repro/internal/mem"
)

// Config tunes the sanitizer. The zero value of any field selects its
// default, and a nil *Config is the zero Config.
type Config struct {
	// Every is the full-pass cadence in cycles.
	Every uint64
	// StallBudget is how long every running core may go without committing
	// a single instruction before the watchdog declares the machine stalled.
	StallBudget uint64
	// TxnBudget is how long one transaction (an L1 miss not parked in the
	// sync engine, or an invalidation token) may stay outstanding before
	// the watchdog declares it lost.
	TxnBudget uint64
	// EventChecks additionally runs targeted checks on every delivered
	// response, processed invalidation and filter release.
	EventChecks bool
	// KeepGoing records violations without aborting the run (default:
	// the machine stops at the first violation).
	KeepGoing bool
	// MaxViolations bounds the recorded violations.
	MaxViolations int
}

// Default returns the standard checker configuration with event-triggered
// checks enabled.
func Default() *Config { return &Config{EventChecks: true} }

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Every == 0 {
		c.Every = 4096
	}
	if c.StallBudget == 0 {
		c.StallBudget = 200_000
	}
	if c.TxnBudget == 0 {
		c.TxnBudget = 100_000
	}
	if c.MaxViolations == 0 {
		c.MaxViolations = 8
	}
	return c
}

// Violation is one detected invariant breach, with enough state attached to
// attribute it: the line, the directory entry or filter slot involved, and
// the core or thread entry at fault. Fields that do not apply hold -1 (ints)
// or 0 (Addr).
type Violation struct {
	Cycle     uint64
	Checker   string // "msi", "inclusion", "filter", "lock", "liveness"
	Invariant string // e.g. "msi.double-modified"
	Addr      uint64
	Core      int // physical core, -1 when n/a
	Bank      int // L2 bank, -1 when n/a
	Slot      int // filter slot in Bank, -1 when n/a
	Thread    int // filter thread entry, -1 when n/a
	Detail    string
}

// Error formats the violation as a fault report.
func (v *Violation) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sanitize: cycle %d: %s: %s", v.Cycle, v.Invariant, v.Detail)
	if v.Addr != 0 {
		fmt.Fprintf(&b, " addr=%#x", v.Addr)
	}
	if v.Core >= 0 {
		fmt.Fprintf(&b, " core=%d", v.Core)
	}
	if v.Bank >= 0 {
		fmt.Fprintf(&b, " bank=%d", v.Bank)
	}
	if v.Slot >= 0 {
		fmt.Fprintf(&b, " slot=%d", v.Slot)
	}
	if v.Thread >= 0 {
		fmt.Fprintf(&b, " thread=%d", v.Thread)
	}
	return b.String()
}

func (v *Violation) String() string { return v.Error() }

// dedupKey identifies a violation independent of the cycle it was observed
// at, so a persistent breach is reported once, not once per check pass.
func (v *Violation) dedupKey() string {
	return fmt.Sprintf("%s|%#x|%d|%d|%d|%d", v.Invariant, v.Addr, v.Core, v.Bank, v.Slot, v.Thread)
}

// Sanitizer holds the checker state for one machine. Attach builds one and
// hands it to the machine's run loop as a core.Checker.
type Sanitizer struct {
	cfg    Config
	next   uint64 // the next full pass's cycle
	sys    *mem.System
	cores  []*cpu.Core // logical contexts
	physOf []int       // logical -> physical core
	hooks  []*filter.BankFilters

	violations []Violation
	seen       map[string]bool

	// Watchdog progress tracking, per logical core.
	lastCommitted []uint64
	lastChange    []uint64

	// Statistics (not part of any machine stats report: the sanitizer must
	// not perturb comparable output).
	FullChecks  uint64
	EventChecks uint64
}

// New builds a sanitizer over a live machine's parts without attaching it,
// for driving checks by hand; its first full pass is due at cycle Every.
func New(cfg *Config, m *core.Machine) *Sanitizer {
	c := Config{}
	if cfg != nil {
		c = *cfg
	}
	physOf := make([]int, m.LogicalCores())
	for l := range physOf {
		physOf[l] = m.PhysicalOf(l)
	}
	s := &Sanitizer{
		cfg:           c.withDefaults(),
		sys:           m.Sys,
		cores:         m.Cores,
		physOf:        physOf,
		hooks:         m.Hooks,
		seen:          make(map[string]bool),
		lastCommitted: make([]uint64, len(m.Cores)),
		lastChange:    make([]uint64, len(m.Cores)),
	}
	s.next = s.cfg.Every
	return s
}

// Attach builds a sanitizer over m and attaches it: m's runs make a full
// pass every Every cycles, deliver it events when EventChecks is set, and
// stop at the first violation unless KeepGoing is set.
func Attach(m *core.Machine, cfg *Config) *Sanitizer {
	s := New(cfg, m)
	m.Attach(s)
	return s
}

// Due returns the cycle the next full pass is due at (core.Checker).
func (s *Sanitizer) Due() uint64 { return s.next }

// Violations returns everything recorded so far.
func (s *Sanitizer) Violations() []Violation { return s.violations }

// Tripped reports whether any violation has been recorded.
func (s *Sanitizer) Tripped() bool { return len(s.violations) > 0 }

// Err returns the first recorded violation as the error that stops the run,
// or nil; always nil under KeepGoing (core.Checker).
func (s *Sanitizer) Err() error {
	if len(s.violations) == 0 || s.cfg.KeepGoing {
		return nil
	}
	return &s.violations[0]
}

// record stores a violation unless it duplicates an earlier one or the
// bound is reached.
func (s *Sanitizer) record(v Violation) {
	if len(s.violations) >= s.cfg.MaxViolations {
		return
	}
	k := v.dedupKey()
	if s.seen[k] {
		return
	}
	s.seen[k] = true
	s.violations = append(s.violations, v)
}

// full reports whether further checking is pointless (bound reached).
func (s *Sanitizer) full() bool { return len(s.violations) >= s.cfg.MaxViolations }

// Check runs one full pass of every checker at cycle now; the next is due
// Every cycles later (core.Checker).
func (s *Sanitizer) Check(now uint64) {
	s.next = now + s.cfg.Every
	if s.full() {
		return
	}
	s.FullChecks++
	s.checkCoherence(now)
	s.checkFilters(now)
	s.checkLiveness(now)
}

// OnEvent implements mem.Probe: targeted checks on the state a memory
// event just touched. Its Txn is the transaction the memory system
// processed — a delivered response, an invalidation applied at a bank, or a
// fill released by a filter. Every other kind, and every event without
// Config.EventChecks, is ignored.
func (s *Sanitizer) OnEvent(e mem.Event) {
	if e.Kind != mem.EvMem || !s.cfg.EventChecks || s.full() {
		return
	}
	now, t := e.Now, e.Txn
	s.EventChecks++
	switch t.Kind {
	case mem.Fill, mem.UpgAck:
		s.checkLine(now, s.sys.Cfg.LineAddr(t.Addr))
	case mem.InvalD, mem.InvalI:
		s.checkLine(now, s.sys.Cfg.LineAddr(t.Addr))
		s.checkBankFilters(now, s.sys.Cfg.BankOf(t.Addr))
	default:
		// A released fill arrives as its original request kind.
		s.checkBankFilters(now, s.sys.Cfg.BankOf(t.Addr))
	}
}
