package cpu

import (
	"repro/internal/isa"
	"repro/internal/mem"
)

// Quiescence fast path.
//
// A core is *quiesced* when its next Tick — and every following Tick until
// the memory system delivers a response addressed to it, or the barrier
// network's release for its HWBAR becomes visible — would change no
// architectural or microarchitectural state other than a fixed set of
// per-cycle counters (Cycles, plus FetchMissStalls or FenceStalls depending
// on what the core is blocked on). This is exactly the state of a thread
// starved by a barrier filter (every window entry is a load waiting on a
// parked fill or an instruction depending on one), spinning in a stalled
// instruction fetch, stalled with a full window behind an LL/SC miss
// (the SC waits on the LL's fill, the spin loads behind it are parked on the
// SC's unresolved address), or waiting on the barrier network at a HWBAR
// (its polls fail until a release cycle the device knows ahead of time).
//
// The machine uses the flag to put a quiesced core to sleep — it is not
// visited again until the memory system's wake hook fires or, for a HWBAR
// waiter, its release cycle comes — and, when every core sleeps, to
// fast-forward the cycle counter in bulk to the memory system's next event
// or the barrier network's next release. Both skips are behaviour-
// invariant: the skipped ticks are provably no-ops, and Skip credits the
// per-cycle counters they would have bumped (in one sum, when the core
// wakes or the run returns), so cycle counts, statistics, and kernel
// outputs are bit-identical to the slow path (core.Config.NoFastPath
// disables the whole mechanism for differential testing).
//
// CheckQuiesce is deliberately conservative: any state it cannot cheaply
// prove frozen keeps the core on the slow path. It must only use
// side-effect-free probes (mem.L1.Peek / MissPending, never Present or
// WriteState, which refresh cache LRU state and hit counters).

// Quiesced reports whether the core is in the quiesced fast-path state
// (set by CheckQuiesce, cleared by Wake and by any pipeline reset).
func (c *Core) Quiesced() bool { return c.quiesced }

// Wake drops the core out of the quiesced state. The machine's wake hook
// calls it whenever the memory system delivers a response (fill, upgrade
// ack, or invalidation ack) addressed to this core.
func (c *Core) Wake() { c.quiesced = false }

// CheckQuiesce decides whether every Tick from cycle now+1 onward would be
// a no-op until a memory response arrives, and records which per-cycle
// stall counters those skipped ticks would have bumped. It walks the Tick
// stages in order and demands, for each, a condition that (a) makes the
// stage side-effect-free this cycle and (b) can only be falsified by a
// response delivery (which wakes the core) — never by the passage of time,
// bar a HWBAR's release, whose cycle the machine wakes the core at.
func (c *Core) CheckQuiesce(now uint64) bool {
	c.quiesced = false
	c.qFetchStall = false
	c.qFenceStall = false
	if !c.Running() {
		return false
	}
	// completeStage: nothing executing toward a future doneAt. (Loads in
	// missWait are on the miss queue, not the in-flight list; their doneAt
	// is unreachable until performLoad runs after the fill.)
	if len(c.flight) != 0 {
		return false
	}
	// fetchStage holds until fetchHoldUntil expire by themselves, without
	// a memory event; quiescing across the expiry would change behaviour.
	if now+1 < c.fetchHoldUntil {
		return false
	}
	// commitStage: the window head must stay uncommittable.
	if len(c.window) > 0 {
		e := c.window[0]
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
				if len(c.sb) == 0 && (!c.hwbarSent || !c.bnet.Parked(now+1, c.ID, int(e.in.Imm))) {
					return false
				}
				c.qFenceStall = true
			case isa.ClassFence, isa.ClassHalt:
				if len(c.sb) == 0 {
					return false // trySerializing would mark it done
				}
				c.qFenceStall = true
			case isa.ClassIFlush:
				if c.sbIssuedOnly() {
					return false
				}
				c.qFenceStall = true
			}
		}
	}
	// drainStoreBuffer: the head entry must be parked on an outstanding
	// transaction. A store whose line is present would perform (Modified)
	// or issue an upgrade and refresh the line's LRU state every cycle
	// (Shared) — both stay on the slow path.
	if len(c.sb) > 0 {
		h := &c.sb[0]
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
	// missWaitStage: every blocked load's fill must still be outstanding.
	if len(c.ready) != 0 {
		return false
	}
	for _, e := range c.missq {
		if c.l1d.Peek(e.addr) != mem.Invalid || !c.l1d.MissPending(e.addr) {
			return false
		}
	}
	// dispatchStage: the first fetched instruction must be undispatchable.
	if len(c.fetchBuf) > 0 && !c.fenceBlock && len(c.window) < c.Cfg.RUUSize {
		if !c.fetchBuf[0].d.Mem || c.memOps < c.Cfg.LSQSize {
			return false
		}
	}
	// fetchStage: stopped, buffer-full, or stalled on an outstanding
	// instruction fill (the per-cycle FetchMissStalls state).
	if !c.fetchStopped && len(c.fetchBuf) < 4*c.Cfg.FetchWidth {
		if c.l1i.Peek(c.fetchPC) != mem.Invalid || !c.l1i.MissPending(c.fetchPC) {
			return false
		}
		c.qFetchStall = true
	}
	c.quiesced = true
	return true
}
