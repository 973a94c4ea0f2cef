// Package hbcheck is the dynamic happens-before oracle for the static
// verifier (package vet): a vector-clock data-race checker driven by the
// simulator's committed memory-access stream and by the barrier-ordering
// events of the filter tables and the dedicated barrier network.
//
// The checker mirrors the sanitizer's read-only observer discipline: it
// never touches machine state, so a race-free run is bit-identical with the
// checker on or off. Loads are observed at commit (wrong-path loads never
// commit), stores when they perform (the post-commit store buffer and SC
// are never wrong-path), so the observed stream is exactly the memory
// order the coherence protocol serialized.
//
// Happens-before edges come from four synchronization sources:
//
//   - Filter barriers: every arrival invalidation joins the arriving
//     thread's clock into the filter's accumulator (release); when the last
//     arrival opens the barrier, the accumulator joins into every
//     participating thread's clock (acquire). Timeout and evict releases
//     deliberately get no credit — they are protocol errors, not
//     synchronization.
//   - HWBAR: arrivals accumulate per barrier id; a successful release
//     acquires the episode's accumulated clock. Episodes are delimited by
//     the first release after a full arrival round, so back-to-back
//     invocations do not leak order across episodes.
//   - Hardware locks: a release invalidation joins the holder's clock
//     into the lock table entry's accumulator; the next grant joins the
//     accumulator into the grantee, ordering consecutive critical
//     sections. The release is a DCBI — neither load nor store — so the
//     software-barrier rule below cannot see it; the table reports it.
//   - Software barriers: any store to the barrier data region
//     (addr >= SyncBase) is a release on its 8-byte cell and any load from
//     it an acquire, the standard interpretation of LL/SC spin protocols.
//     Accesses there are exempt from race checking — the region is
//     synchronization by construction.
//
// Everything else is checked FastTrack-style per byte: a write must
// happen-after every previous access to the byte, a read must happen-after
// the previous write. A violation is recorded as a Race. Attach puts a
// checker on a core.Machine's event stream as a core.Checker: the run stops
// at the first race, with a label-located report, unless KeepGoing is set.
package hbcheck

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/mem"
)

// Config configures a Checker.
type Config struct {
	// SyncBase is the lowest address of the synchronization region:
	// accesses at or above it carry release/acquire semantics on their
	// 8-byte cell instead of being race-checked. Attach defaults it to
	// core.BarrierRegion.
	SyncBase uint64
	// KeepGoing records every race instead of stopping the run at the
	// first one.
	KeepGoing bool
	// MaxRaces bounds the recorded races (0 = 32). Further races only
	// bump the dropped counter.
	MaxRaces int
}

// Race is one happens-before violation: two accesses to the same byte from
// different threads, at least one a write, with no ordering between them.
// Prev is the earlier access in simulation time.
type Race struct {
	Cycle      uint64 // cycle the second access was observed
	Addr       uint64 // first conflicting byte
	Thread     int    // second access
	PC         uint64
	Write      bool
	PrevThread int // first access
	PrevPC     uint64
	PrevWrite  bool
}

func acc(write bool) string {
	if write {
		return "store"
	}
	return "load"
}

// access is one recorded epoch: the owning thread's clock component at the
// access, plus the pc for attribution.
type access struct {
	clk uint64
	pc  uint64
}

// cell is the per-byte shadow: the last write and the last read per thread
// since that write.
type cell struct {
	wTid int
	w    access
	r    []access // indexed by thread; clk 0 = no read
}

// hwAcc tracks one HWBAR id. cur accumulates the current episode's
// arrivals; the first release of an episode snapshots cur into open (every
// participant has arrived by then, and none can re-arrive before its own
// release), so later next-episode arrivals cannot leak into this episode's
// acquires.
type hwAcc struct {
	cur, open []uint64
	arrived   int // arrivals accumulated in cur
	expect    int // releases outstanding this episode
	released  int
}

// Checker is the vector-clock race detector. It is a mem.Probe, read-only
// with respect to the simulated machine.
type Checker struct {
	cfg    Config
	clocks [][]uint64 // per-thread vector clocks
	// Release accumulators: per 8-byte sync cell, per filter barrier (its
	// arrivals between openings) and per lock, the last two by primitive
	// key (mem.Event).
	sync, bars, locks map[uint64][]uint64
	hw                map[uint64]*hwAcc
	shadow            map[uint64]*cell

	races   []Race
	seen    map[[5]uint64]bool
	Dropped uint64 // races beyond MaxRaces (or duplicates of a seen pair)

	locate func(pc uint64) string // renders a pc in reports (nil: hex)
	err    error                  // the first race's, unless KeepGoing
}

// New builds a checker for nthreads logical cores.
func New(cfg Config, nthreads int) *Checker {
	if cfg.MaxRaces <= 0 {
		cfg.MaxRaces = 32
	}
	c := &Checker{
		cfg:    cfg,
		clocks: make([][]uint64, nthreads),
		sync:   map[uint64][]uint64{},
		bars:   map[uint64][]uint64{},
		locks:  map[uint64][]uint64{},
		hw:     map[uint64]*hwAcc{},
		shadow: map[uint64]*cell{},
		seen:   map[[5]uint64]bool{},
	}
	for t := range c.clocks {
		c.clocks[t] = make([]uint64, nthreads)
		c.clocks[t][t] = 1
	}
	return c
}

// Attach builds a checker for m's logical cores and attaches it, reporting
// pcs with m's labels.
func Attach(m *core.Machine, cfg Config) *Checker {
	if cfg.SyncBase == 0 {
		cfg.SyncBase = core.BarrierRegion
	}
	c := New(cfg, m.LogicalCores())
	c.locate = m.LocatePC
	m.Attach(c)
	return c
}

// Races returns the recorded happens-before violations in detection order.
func (c *Checker) Races() []Race { return c.races }

// Describe renders a race with its pcs located, mirroring the wording of
// the machine's deadlock reports.
func (c *Checker) Describe(r Race) string {
	loc := c.locate
	if loc == nil {
		loc = func(pc uint64) string { return fmt.Sprintf("%#x", pc) }
	}
	return fmt.Sprintf("addr %#x: core%d %s at pc %s unordered with core%d %s at pc %s (cycle %d)",
		r.Addr, r.Thread, acc(r.Write), loc(r.PC), r.PrevThread, acc(r.PrevWrite), loc(r.PrevPC), r.Cycle)
}

// Check, Due and Err make the checker a core.Checker. Races are found at
// the offending access, so no work is ever due; Err is the first race, a
// "core: data race" error rendered as it was recorded (nil under
// KeepGoing).
func (c *Checker) Check(uint64) {}
func (c *Checker) Due() uint64  { return math.MaxUint64 }
func (c *Checker) Err() error   { return c.err }

func joinInto(dst, src []uint64) {
	for i, v := range src {
		if v > dst[i] {
			dst[i] = v
		}
	}
}

func zero(v []uint64) {
	for i := range v {
		v[i] = 0
	}
}

func (c *Checker) record(r Race) {
	key := [5]uint64{uint64(r.Thread), r.PC, uint64(r.PrevThread), r.PrevPC, 0}
	if r.Write {
		key[4] |= 1
	}
	if r.PrevWrite {
		key[4] |= 2
	}
	if c.seen[key] || len(c.races) >= c.cfg.MaxRaces {
		c.Dropped++
		return
	}
	c.seen[key] = true
	c.races = append(c.races, r)
	if c.err == nil && !c.cfg.KeepGoing {
		c.err = fmt.Errorf("core: data race: %s", c.Describe(r))
	}
}

// OnEvent implements mem.Probe: loads are observed at commit, stores as
// they perform, and the synchronization kinds are the four edge sources of
// the package comment. A hardware lock's release invalidation is a DCBI —
// neither a load nor a store — so the software-barrier rule never sees the
// hand-off; the lock table reports it instead.
func (c *Checker) OnEvent(e mem.Event) {
	if e.Kind == mem.EvBarrierOpen {
		// Every participating thread acquires the accumulated arrivals.
		if acc := c.bars[e.Key]; acc != nil {
			for t := 0; t < e.N && t < len(c.clocks); t++ {
				joinInto(c.clocks[t], acc)
			}
			zero(acc)
		}
		return
	}
	t := e.Core
	if t < 0 || t >= len(c.clocks) {
		return
	}
	ct := c.clocks[t]
	switch e.Kind {
	case mem.EvLoad, mem.EvStore:
		write := e.Kind == mem.EvStore
		if e.Addr < c.cfg.SyncBase {
			for i := 0; i < e.Size; i++ {
				c.checkByte(e.Now, t, e.PC, e.Addr+uint64(i), write)
			}
		} else if write {
			c.release(c.accumulator(c.sync, e.Addr&^7), t)
		} else if vc, ok := c.sync[e.Addr&^7]; ok {
			joinInto(ct, vc)
		}
	case mem.EvHWBarArrive:
		h := c.hwEpisode(e.Key)
		c.release(h.cur, t)
		h.arrived++
	case mem.EvHWBarRelease:
		h := c.hwEpisode(e.Key)
		if h.released == 0 {
			copy(h.open, h.cur)
			zero(h.cur)
			h.expect = h.arrived
			h.arrived = 0
		}
		joinInto(ct, h.open)
		h.released++
		if h.released >= h.expect {
			h.released = 0
		}
	case mem.EvBarrierArrive:
		c.release(c.accumulator(c.bars, e.Key), t)
	case mem.EvLockGrant:
		// The grantee acquires every previous holder's released clock.
		joinInto(ct, c.accumulator(c.locks, e.Key))
	case mem.EvLockRelease:
		c.release(c.accumulator(c.locks, e.Key), t)
	}
}

// release joins thread t's clock into acc and ticks t's own component, so
// everything t did so far happens-before whoever later acquires acc.
func (c *Checker) release(acc []uint64, t int) {
	ct := c.clocks[t]
	joinInto(acc, ct)
	ct[t]++
}

// accumulator returns the clock kept under key in accs, creating it.
func (c *Checker) accumulator(accs map[uint64][]uint64, key uint64) []uint64 {
	vc := accs[key]
	if vc == nil {
		vc = make([]uint64, len(c.clocks))
		accs[key] = vc
	}
	return vc
}

// hwEpisode returns HWBAR id's episode tracker, creating it.
func (c *Checker) hwEpisode(id uint64) *hwAcc {
	h := c.hw[id]
	if h == nil {
		h = &hwAcc{cur: make([]uint64, len(c.clocks)), open: make([]uint64, len(c.clocks))}
		c.hw[id] = h
	}
	return h
}

// --- shadow memory -------------------------------------------------------

func (c *Checker) checkByte(now uint64, t int, pc, addr uint64, write bool) {
	cl := c.shadow[addr]
	if cl == nil {
		cl = &cell{wTid: -1, r: make([]access, len(c.clocks))}
		c.shadow[addr] = cl
	}
	ct := c.clocks[t]
	if cl.wTid >= 0 && cl.wTid != t && cl.w.clk > ct[cl.wTid] {
		c.record(Race{Cycle: now, Addr: addr, Thread: t, PC: pc, Write: write,
			PrevThread: cl.wTid, PrevPC: cl.w.pc, PrevWrite: true})
	}
	if !write {
		cl.r[t] = access{clk: ct[t], pc: pc}
		return
	}
	for u := range cl.r {
		if u != t && cl.r[u].clk > ct[u] {
			c.record(Race{Cycle: now, Addr: addr, Thread: t, PC: pc, Write: true,
				PrevThread: u, PrevPC: cl.r[u].pc, PrevWrite: false})
		}
	}
	cl.wTid = t
	cl.w = access{clk: ct[t], pc: pc}
	for u := range cl.r {
		cl.r[u] = access{}
	}
}
