package cpu

import (
	"slices"

	"repro/internal/isa"
)

// Periodic sleep: a core whose whole state repeats with a short period (a
// spin on an L1-resident flag) proves it and sleeps. Proof: DESIGN.md §6.

const (
	gateStreak = 3    // ticks the gate must hold before a proof
	minBackoff = 16   // ticks without a proof after a failed one, doubling
	maxBackoff = 4096 // up to this
	nMoved     = 9    // counters a period moves besides Cycles (moved)
)

// gate holds fetchPC, nextSeq - Committed and Committed after the last two
// ticks: period p is a candidate when the first two repeat and Committed moved.
type gate struct {
	pc, occ, com          [2]uint64 // [last] one tick ago, the other two
	streak, wait, backoff uint16
	p, last               uint8
}

// period is a proof in progress (snap set) or a periodic sleep (asleep).
type period struct {
	snap   *snapBuf
	asleep bool
	p      uint64
	t0     uint64 // the cycle the proof encoded, then the one it ended
	d      [nMoved]uint32
}

// snapBuf holds a proof's encoded state and start counters.
type snapBuf struct {
	w       []uint64
	start   [nMoved]uint64
	outside uint64
}

// spare keeps up to 16 proof buffers; unlike a sync.Pool it survives GC.
var spare = make(chan *snapBuf, 16)

// moved lists the counters a period moves besides Cycles.
func (c *Core) moved() [nMoved]*uint64 {
	return [...]*uint64{&c.Committed, &c.LoadsExecuted, &c.Mispredicts, &c.FetchMissStalls, &c.FenceStalls,
		&c.SCFailures, &c.lookups, &c.l1d.Hits, &c.l1i.Hits}
}

// Repeats is CheckPeriodic's inlined first test: a proof is running, or the
// fetch PC repeats with no data miss out. Otherwise it records the PC (the
// slot's other fields go stale: the gate only picks candidates).
func (c *Core) Repeats() bool {
	g := &c.gate
	if (c.fetchPC == g.pc[0] || c.fetchPC == g.pc[1]) && c.l1d.Quiet() || c.per.snap != nil {
		return true
	}
	g.last ^= 1
	g.pc[g.last], g.streak = c.fetchPC, 0
	return false
}

// CheckPeriodic, run after the tick at cycle now when Repeats held, reports
// whether the core just proved its state periodic: it may sleep from now+1.
func (c *Core) CheckPeriodic(now uint64) bool {
	g, r := &c.gate, &c.per
	if s := r.snap; s != nil {
		switch {
		case !c.Running() || now > r.t0+r.p:
		case now < r.t0+r.p:
			return false
		case c.candidate() && c.outside() == s.outside:
			n := len(s.w)
			if s.w = c.encode(s.w, now); slices.Equal(s.w[:n], s.w[n:]) {
				for i, v := range c.moved() {
					r.d[i] = uint32(*v - s.start[i])
				}
				r.t0, r.asleep, g.backoff = now, true, 0
				c.dropProof()
				return true
			}
			fallthrough
		default:
			g.backOff()
		}
		c.dropProof()
	}
	if g.wait > 0 {
		g.wait--
		return false
	}
	pc, occ, com := c.fetchPC, c.nextSeq-c.Committed, c.Committed
	var p uint8
	i, j := g.last, g.last^1
	switch {
	case pc == g.pc[i] && occ == g.occ[i] && com != g.com[i]:
		p = 1
	case pc == g.pc[j] && occ == g.occ[j] && com != g.com[j]:
		p = 2
	}
	g.pc[j], g.occ[j], g.com[j], g.last = pc, occ, com, j
	if p != g.p || p == 0 {
		g.p, g.streak = p, 0
	} else if g.streak < gateStreak {
		g.streak++
	}
	if g.streak < gateStreak || !c.Running() {
		return false
	}
	if !c.candidate() {
		// A store to drain, a serializing head or a probe outlasts a
		// tick: back off as after a failed proof.
		g.backOff()
		return false
	}
	var s *snapBuf
	select {
	case s = <-spare:
	default: // sized for two encodings of a full fetch buffer and window
		s = &snapBuf{w: make([]uint64, 0, 2*(150+16*c.Cfg.FetchWidth+21*c.Cfg.RUUSize+3*c.Cfg.LSQSize))}
	}
	s.w = c.encode(s.w[:0], now)
	for i, v := range c.moved() {
		s.start[i] = *v
	}
	s.outside = c.outside()
	*r = period{snap: s, p: uint64(p), t0: now}
	return false
}

// backOff holds the gate shut for the next wait ticks, doubling wait from
// minBackoff up to maxBackoff until a proof succeeds.
func (g *gate) backOff() {
	g.wait = max(g.backoff, minBackoff)
	g.backoff = min(2*g.wait, maxBackoff)
}

// candidate holds what a period needs at both ends: no probe, nothing to
// drain, nothing serializing, nothing outstanding in the memory system.
func (c *Core) candidate() bool {
	return c.probe == nil && len(c.sb) == 0 && !c.fenceBlock && !c.hwbarSent && c.sys.CoreQuiet(c.physID)
}

// outside sums the counters a period must leave alone.
func (c *Core) outside() uint64 {
	return c.volatile + c.l1d.Misses + c.l1d.Changes() + c.l1i.Misses + c.l1i.Changes()
}

// dropProof hands a proof's buffer back to spare.
func (c *Core) dropProof() {
	if c.per.snap != nil {
		select {
		case spare <- c.per.snap:
		default:
		}
		c.per.snap = nil
	}
}

// Skip brings a sleeping core through the n cycles it did not tick. A
// quiesced core is credited the per-cycle counters those no-op ticks would
// have bumped. A periodic one is awake again after k = ⌊n/P⌋ periods — k
// times each counter's delta, and kP to Cycles and to every cycle field
// still ahead of the proof's end; sequence numbers and LRU stamps keep
// their order, all a later tick compares — and n mod P real ticks.
func (c *Core) Skip(n uint64) {
	r := &c.per
	if !r.asleep {
		if c.quiesced && c.Running() {
			c.Cycles += n
			if c.qFetchStall {
				c.FetchMissStalls += n
			}
			if c.qFenceStall {
				c.FenceStalls += n
			}
		}
		return
	}
	r.asleep, c.gate.streak, c.gate.p = false, 0, 0
	k := n / r.p
	for i, v := range c.moved() {
		*v += k * uint64(r.d[i])
	}
	if c.trans != nil {
		c.trans.Hits += k * uint64(r.d[6]) // lookups: a period's all hit
	}
	c.Cycles += k * r.p
	shift := func(t *uint64) {
		if *t > r.t0 && *t != ^uint64(0) {
			*t += k * r.p
		}
	}
	for _, e := range c.window {
		shift(&e.doneAt)
	}
	shift(&c.fetchHoldUntil)
	shift(&c.divBusyUntil)
	for t := r.t0 + 1 + k*r.p; t <= r.t0+n; t++ {
		c.Tick(t)
	}
}

// encode appends the state a later tick reads, after the tick at now: entry
// pointers as distances from nextSeq, cycle fields as distances ahead of now
// (0 once passed), a fetched record as its word (a pure function of it).
func (c *Core) encode(w []uint64, now uint64) []uint64 {
	at := func(t uint64) uint64 {
		if t == ^uint64(0) {
			return t
		}
		return max(t, now) - now
	}
	var block uint64
	if c.curBlock != nil {
		block = c.curBlock.base | 1
	}
	w = append(w, c.fetchPC, at(c.fetchHoldUntil), at(c.divBusyUntil), c.llAddr, b2u(c.fetchStopped)|b2u(c.llValid)<<1,
		uint64(c.memOps), block, uint64(len(c.Console)), uint64(len(c.fetchBuf)), uint64(len(c.window)))
	w = append(w, c.regs[:]...)
	for _, e := range c.producer {
		w = append(w, c.rel(e))
	}
	for _, f := range c.fetchBuf {
		w = append(w, f.pc, packInst(f.d.In), f.predNext, b2u(f.predTaken))
	}
	for _, e := range c.window {
		a, b := &e.src[0], &e.src[1]
		bits := b2u(e.predTaken) | b2u(e.issued)<<1 | b2u(e.done)<<2 | b2u(e.addrReady)<<3 | b2u(e.missWait)<<4 |
			b2u(e.isSer)<<5 | b2u(e.isBranch)<<6 | b2u(e.actualTaken)<<7 | b2u(e.mispredicted)<<8 | b2u(e.fault != nil)<<9 |
			b2u(a.ready)<<10 | uint64(a.nextSlot)<<11 | b2u(b.ready)<<12 | uint64(b.nextSlot)<<13 | uint64(e.wakeSlot)<<14
		w = append(w, c.rel(e), e.pc, packInst(e.in), e.predNext, a.val, c.rel(a.dep), c.rel(a.next),
			b.val, c.rel(b.dep), c.rel(b.next), c.rel(e.wakeHead), at(e.doneAt), e.result, e.addr, e.storeVal,
			e.actualNext, uint64(e.class)|uint64(e.memBytes)<<8|uint64(uint8(e.dest))<<16|bits<<24)
	}
	for _, q := range [...][]*entry{c.ready, c.flight, c.missq, c.storeq, c.parked} {
		w = append(w, uint64(len(q)))
		for _, e := range q {
			w = append(w, c.rel(e))
		}
	}
	return w
}

// rel names a window entry by its distance from nextSeq (0 for none).
func (c *Core) rel(e *entry) uint64 {
	if e == nil {
		return 0
	}
	return c.nextSeq - e.seq + 1
}

func packInst(in isa.Inst) uint64 {
	return uint64(in.Op)<<56 | uint64(in.Rd)<<48 | uint64(in.Rs1)<<40 | uint64(in.Rs2)<<32 | uint64(uint32(in.Imm))
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
