package cpu

import (
	"repro/internal/isa"
	"repro/internal/mem"
)

// Quiescence: the zero-commit, one-cycle period.
//
// A core is *quiescent* when its next Tick, and every following Tick until
// the memory system delivers a response addressed to it or the barrier
// network's release for its HWBAR becomes visible, would change no state
// other than Cycles and FetchMissStalls or FenceStalls, depending on what
// the core is blocked on. This is the state of a thread starved by a
// barrier filter (every window entry is a load waiting on a parked fill or
// an instruction depending on one), stalled in instruction fetch, stalled
// with a full window behind an LL/SC miss (the SC waits on the LL's fill,
// the spin loads behind it are parked on the SC's unresolved address), or
// waiting on the barrier network at a HWBAR (its polls fail until a release
// cycle the device knows ahead of time).
//
// Such a state is a period like any other (P = 1, no commit, a delta of one
// on the stall counter), so the core sleeps in the period record, Skip
// credits it and the same wakes end it (DESIGN.md §6). Only the proof
// differs: CheckQuiesce checks, where CheckPeriodic encodes the state twice,
// which the cores that park most could not afford on each of their short,
// frequent sleeps. It is conservative: any state it cannot cheaply prove
// frozen keeps the core on the slow path. It uses only side-effect-free
// probes (mem.L1.Peek / MissPending, never Present or WriteState, which
// refresh cache LRU state and hit counters).

// CheckQuiesce, run after the tick at cycle now, reports whether every Tick
// from now+1 on would be a no-op until a response arrives; the core then
// sleeps from now+1 in a one-cycle, zero-commit period. It walks the Tick
// stages in order and demands, for each, a condition that (a) makes the
// stage side-effect-free this cycle and (b) can only be falsified by a
// response delivery, never by the passage of time, bar a HWBAR's release,
// whose cycle the machine wakes the core at.
func (c *Core) CheckQuiesce(now uint64) bool {
	if !c.Running() {
		return false
	}
	// completeStage: nothing executing toward a future doneAt. (Loads in
	// missWait are on the miss queue, not the in-flight list; their doneAt
	// is unreachable until performLoad runs after the fill.)
	if c.flight.n != 0 {
		return false
	}
	// A fetch hold and a busy divider expire by themselves, without a
	// memory event; Skip would shift them as a period's.
	if now+1 < max(c.fetchHoldUntil, c.divBusyUntil) {
		return false
	}
	// commitStage: the window head must stay uncommittable.
	var d [nMoved]uint32 // the period's deltas: a stall cycle, if any
	if c.win.n > 0 {
		e := c.win.at(0)
		if e.done {
			return false // would commit
		}
		if e.isSer {
			switch e.class {
			case isa.ClassHWBar:
				// Once its arrival is sent, it polls the barrier
				// network for a release the machine knows the cycle
				// of ahead (BarrierNet.Parked) and wakes it at. Before
				// that, it waits on the store buffer like a FENCE.
				if c.sb.n == 0 && (!c.hwbarSent || !c.bnet.Parked(now+1, c.ID, int(e.in.Imm))) {
					return false
				}
				d[fenceStalls] = 1
			case isa.ClassFence, isa.ClassHalt:
				if c.sb.n == 0 {
					return false // trySerializing would mark it done
				}
				d[fenceStalls] = 1
			case isa.ClassIFlush:
				if c.sbIssuedOnly() {
					return false
				}
				d[fenceStalls] = 1
			}
		}
	}
	// drainStoreBuffer: the head entry must be parked on an outstanding
	// transaction. A store whose line is present would perform (Modified)
	// or issue an upgrade and refresh the line's LRU state every cycle
	// (Shared) — both stay on the slow path.
	if c.sb.n > 0 {
		h := c.sb.at(0)
		if h.cacheOp {
			if h.token == 0 || !c.sys.InvalPending(c.physID, h.token) {
				return false
			}
		} else if c.l1d.Peek(h.addr) != mem.Invalid || !c.l1d.MissPending(h.addr) {
			return false
		}
	}
	// issueStage: nothing may be selectable (a ready entry would attempt to
	// issue; even attempts that fail ordering checks are not worth proving
	// frozen). Loads on the parked list are not selectable and need no
	// condition of their own: only a store, SC or cache-op issuing releases
	// them, and that takes a ready entry, or a completion to make one —
	// both excluded here and above until a response wakes the core.
	// missWaitStage: every blocked load's fill must still be outstanding,
	// which missIdle already proves when it holds.
	if c.ready.n != 0 {
		return false
	}
	if !c.missIdle() {
		for _, s := range c.missq.live() {
			if e := c.at(s); c.l1d.Peek(e.addr) != mem.Invalid || !c.l1d.MissPending(e.addr) {
				return false
			}
		}
	}
	// dispatchStage: the first fetched instruction must be undispatchable.
	if c.fetchBuf.n > 0 && !c.fenceBlock && c.win.n < c.Cfg.RUUSize {
		if !c.fetchBuf.at(0).d.Mem || c.memOps < c.Cfg.LSQSize {
			return false
		}
	}
	// fetchStage: stopped, buffer-full, or stalled on an outstanding
	// instruction fill (the per-cycle FetchMissStalls state).
	if !c.fetchStopped && c.fetchBuf.n < 4*c.Cfg.FetchWidth {
		if c.l1i.Peek(c.fetchPC) != mem.Invalid || !c.l1i.MissPending(c.fetchPC) {
			return false
		}
		d[fetchStalls] = 1
	}
	c.dropProof()
	c.per = period{asleep: true, p: 1, t0: now, d: d}
	return true
}
