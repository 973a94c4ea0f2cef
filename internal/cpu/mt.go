package cpu

import "repro/internal/mem"

// MTCore is a fine-grained multithreaded (Niagara-style barrel) core: n
// hardware contexts, each a full architectural thread with its own window
// and registers, sharing one physical core's issue slots and — critically
// for §3.2.1 of the paper — its L1 caches and MSHRs. Each cycle one
// runnable context advances, round-robin.
//
// The shared MSHRs reproduce the paper's §3.2.1 observation: a context
// blocked at a barrier filter occupies an MSHR until the barrier opens, so
// an SMT/FGMT core wants at least as many data MSHRs as contexts
// participating in barriers (fewer still *works* — the blocked context's
// arrival invalidation has already been counted, so the barrier opens and
// the MSHR frees — but the late contexts serialize; see the package tests).
type MTCore struct {
	Contexts []*Core
	rr       int
}

// NewMT builds an n-context multithreaded core on physical core physID.
// Logical thread IDs are firstID, firstID+1, ... (used for the dedicated
// barrier network and diagnostics); all contexts share the physical core's
// L1 caches.
func NewMT(cfg Config, physID, firstID, nctx int, sys *mem.System, bnet BarrierNet) *MTCore {
	mt := &MTCore{}
	for i := 0; i < nctx; i++ {
		c := &Core{
			Cfg:  cfg,
			ID:   firstID + i,
			sys:  sys,
			l1i:  sys.L1I[physID],
			l1d:  sys.L1D[physID],
			bnet: bnet,
			pred: newBimodal(cfg.BimodalEntries, cfg.BTBEntries),
		}
		c.physID = physID
		c.Halted = true
		mt.Contexts = append(mt.Contexts, c)
	}
	// External invalidations are visible to every context sharing the
	// cache: all LL/SC reservations on the lost line are cleared. Local
	// stores break sibling reservations through the siblings list.
	sys.L1D[physID].OnExtInval = func(addr uint64) {
		for _, c := range mt.Contexts {
			c.onLineLost(addr)
		}
	}
	for _, c := range mt.Contexts {
		c.siblings = mt.Contexts
	}
	return mt
}

// Tick advances one runnable context (fine-grained round-robin). Contexts
// that are obviously stalled — empty pipeline waiting on an instruction
// fill, or a full window headed by a load waiting on a fill — donate their
// slot, as the Niagara thread-select stage does for long-latency stalls.
func (mt *MTCore) Tick(now uint64) {
	n := len(mt.Contexts)
	fallback := -1
	for i := 0; i < n; i++ {
		idx := (mt.rr + i) % n
		c := mt.Contexts[idx]
		if !c.Running() {
			continue
		}
		if fallback < 0 {
			fallback = idx
		}
		if c.longStalled(now) {
			continue
		}
		mt.rr = idx + 1
		c.Tick(now)
		return
	}
	// Every runnable context is long-stalled; tick one anyway so that
	// stall bookkeeping (retries, serializing checks) still happens.
	if fallback >= 0 {
		mt.rr = fallback + 1
		mt.Contexts[fallback].Tick(now)
	}
}

// longStalled reports whether the context cannot possibly use an issue
// slot this cycle: its whole pipeline is waiting on a memory fill that has
// not arrived yet. The has-it-arrived checks are essential — the context
// only notices an arrived fill inside its own Tick, so treating it as
// stalled after arrival would let an actively running sibling starve it
// forever. The checks Peek: selecting a thread is not an access, so it
// counts no hit and leaves the LRU order alone.
func (c *Core) longStalled(now uint64) bool {
	if c.fetchBuf.n > 0 || now < c.fetchHoldUntil {
		return false
	}
	if c.win.n == 0 {
		// Nothing in flight: stalled iff the next fetch's fill is
		// genuinely still outstanding.
		return c.l1i.Peek(c.fetchPC) == mem.Invalid && c.l1i.MissPending(c.fetchPC)
	}
	// A window whose head is a load waiting on an outstanding fill, with
	// nothing else in flight, cannot commit or issue this cycle.
	head := c.win.at(0)
	return c.flight.n == 0 && head.missWait && c.sb.n == 0 &&
		c.l1d.Peek(head.addr) == mem.Invalid && c.l1d.MissPending(head.addr)
}

// Running reports whether any context has work.
func (mt *MTCore) Running() bool {
	for _, c := range mt.Contexts {
		if c.Running() {
			return true
		}
	}
	return false
}
