package mem

// BankHook is the barrier filter's attachment point in an L2 bank
// controller. The bank shows the hook every invalidation transaction and
// every fill request that reaches it; the hook may park fills (withhold
// service) and later release them through PopReleased. A nil hook disables
// filtering.
//
// The bank owns a count of the work the hook has pending and hands it over
// once, through BindWork. The bank calls PopReleased and NextEvent only
// while the count is nonzero, so an idle bank costs no interface call.
type BankHook interface {
	// BindWork gives the hook the bank's pending-work count. From then on
	// the hook keeps *w nonzero whenever PopReleased could yield a fill or
	// NextEvent could report one; a hook that never parks may ignore it.
	BindWork(w *int)

	// OnInval observes an InvalD/InvalI transaction for addr from core.
	// It returns true when the transaction is an illegal barrier-protocol
	// transition that must fault the requester (§3.3.4).
	OnInval(now uint64, addr uint64, core int) (fault bool)

	// OnFill observes a fill request. park=true parks the request inside
	// the hook (the bank must not respond); fault=true makes the bank
	// answer with an error-coded fill.
	OnFill(now uint64, t Txn) (park bool, fault bool)

	// PopReleased yields a previously parked request that is now ready
	// to be serviced, with an error flag for timeout releases. ok=false
	// when none is pending this cycle.
	PopReleased(now uint64) (t Txn, errFill bool, ok bool)

	// NextEvent returns the earliest cycle at which PopReleased could
	// yield a fill without new input (ok=false: none).
	NextEvent(now uint64) (event uint64, ok bool)
}

// dirEntry is the full-map directory state for one line: which L1Ds and
// L1Is may hold it, which core (if any) owns it in Modified state, and who
// last received it exclusively. The directory is idealized (untagged,
// unbounded), standing in for the snoopy broadcast of the paper's bus
// without transient-state complexity. Sharer sets are variable-width
// bitsets, so the directory imposes no core-count cap.
//
// holder and delivered are the grant-hold record: delivered is the cycle
// the exclusive fill or upgrade ack reached holder (0 while still in
// flight); the hold window runs from delivery so that bus congestion cannot
// let a competitor snipe a grant before its owner has even seen the line.
type dirEntry struct {
	dSharers  Sharers
	iSharers  Sharers
	owner     int16 // -1 when no L1 holds the line Modified
	holder    int16 // -1 when no grant is held
	delivered uint64
}

// Bank is one bank of the shared L2 plus its slice of the directory and an
// optional barrier-filter hook.
type Bank struct {
	sys   *System
	idx   int
	cache *Cache
	dir   map[uint64]*dirEntry
	hook  BankHook
	work  int // the hook's pending work (BankHook.BindWork)

	inQ      []timedTxn
	refillQ  []timedTxn
	pendMiss map[uint64][]Txn // line addr -> requests awaiting L3/DRAM

	// Statistics.
	Hits, MissesToL3, Invals, Upgrades, WBs, Parked, Faults, Released uint64
}

func newBank(sys *System, idx int) *Bank {
	cfg := sys.Cfg
	return &Bank{
		sys:      sys,
		idx:      idx,
		cache:    NewCache("L2", cfg.L2Size/cfg.L2Banks, cfg.L2Assoc, cfg.LineBytes),
		dir:      make(map[uint64]*dirEntry),
		pendMiss: make(map[uint64][]Txn),
	}
}

// heldFor reports whether addr is inside another core's grant-hold window,
// returning the cycle at which the conflicting request may retry.
func (bk *Bank) heldFor(now uint64, addr uint64, core int) (uint64, bool) {
	e, ok := bk.dir[addr]
	if !ok || e.holder < 0 {
		return 0, false
	}
	if int(e.holder) == core {
		e.holder = -1
		return 0, false
	}
	if e.delivered == 0 {
		// Fill still in flight: poll again shortly.
		return now + 8, true
	}
	hold := uint64(bk.sys.Cfg.GrantHoldCycles)
	if now >= e.delivered+hold {
		e.holder = -1
		return 0, false
	}
	return e.delivered + hold, true
}

// grantDelivered records that the exclusive fill for addr reached its core.
func (bk *Bank) grantDelivered(addr uint64, core int, now uint64) {
	if e, ok := bk.dir[addr]; ok && int(e.holder) == core && e.delivered == 0 {
		e.delivered = now
	}
}

// SetHook attaches a barrier filter hook and binds it to the bank's
// pending-work count.
func (bk *Bank) SetHook(h BankHook) {
	bk.hook, bk.work = h, 0
	if h != nil {
		h.BindWork(&bk.work)
	}
}

// HookWork returns the hook's pending-work count (test use): while it is
// zero, Tick does not ask the hook for released fills.
func (bk *Bank) HookWork() int { return bk.work }

// DirEntry is a read-only copy of one directory entry (sanitizer/test use).
type DirEntry struct {
	DSharers Sharers
	ISharers Sharers
	Owner    int // -1 when no L1D holds the line Modified
}

// DirLookup returns the directory entry for a line, if one has ever been
// created. The sharer sets are copies, so callers cannot alias live
// directory state; no bank state changes.
func (bk *Bank) DirLookup(addr uint64) (DirEntry, bool) {
	e, ok := bk.dir[addr]
	if !ok {
		return DirEntry{Owner: -1}, false
	}
	return DirEntry{DSharers: e.dSharers.Clone(), ISharers: e.iSharers.Clone(), Owner: int(e.owner)}, true
}

// L2Peek returns the L2 array state of a line without touching LRU order.
func (bk *Bank) L2Peek(addr uint64) LineState { return bk.cache.Peek(addr) }

func (bk *Bank) entry(addr uint64) *dirEntry {
	e, ok := bk.dir[addr]
	if !ok {
		e = &dirEntry{owner: -1, holder: -1}
		bk.dir[addr] = e
	}
	return e
}

// push receives a transaction from the bus, arriving at cycle at.
func (bk *Bank) push(t Txn, at uint64) {
	bk.inQ = append(bk.inQ, timedTxn{t, at})
}

// pushRefill receives a line coming back from L3/DRAM.
func (bk *Bank) pushRefill(t Txn, at uint64) {
	bk.refillQ = append(bk.refillQ, timedTxn{t, at})
}

// Tick processes refills, released parked fills (filter bandwidth), and at
// most one new request per cycle.
func (bk *Bank) Tick(now uint64) {
	if len(bk.refillQ) == 0 && len(bk.inQ) == 0 && bk.work == 0 {
		return // nothing to refill, release or serve
	}
	// Refills from below complete pending misses without consuming the
	// request slot (they use the fill pipeline). Only the L3 appends to
	// refillQ, and it ticks after the banks.
	bk.refillQ = drainReady(bk.refillQ, now, func(t Txn) { bk.finishRefill(now, t) })

	// Parked fills released by the filter, up to FilterBW per cycle.
	budget := bk.sys.Cfg.FilterBW
	if budget < 1 {
		budget = 1
	}
	released := 0
	if bk.work > 0 {
		for released < budget {
			t, errFill, ok := bk.hook.PopReleased(now)
			if !ok {
				break
			}
			released++
			bk.Released++
			if errFill {
				bk.respond(now, t, true)
			} else {
				bk.serviceFill(now, t)
			}
			bk.sys.observe(now, t)
		}
	}
	if released > 0 {
		return // the released fills consumed this cycle's slot(s)
	}

	// One new request. Requests against a line inside another core's
	// grant-hold window are deferred in place (their ready time advanced)
	// so they cost no bank bandwidth while they wait — at high core
	// counts, spinning requesters would otherwise monopolize the bank.
	for i := 0; i < len(bk.inQ); i++ {
		if bk.inQ[i].ready > now {
			continue
		}
		t := bk.inQ[i].txn
		if t.Kind == GetM || t.Kind == GetS || t.Kind == Upgrade {
			if retry, held := bk.heldFor(now, t.Addr, t.Core); held {
				bk.inQ[i].ready = retry
				continue
			}
		}
		bk.inQ = append(bk.inQ[:i], bk.inQ[i+1:]...)
		bk.process(now, t)
		return
	}
}

func (bk *Bank) process(now uint64, t Txn) {
	switch t.Kind {
	case InvalD, InvalI:
		bk.processInval(now, t)
	case GetS, GetI, GetM:
		if bk.hook != nil {
			park, fault := bk.hook.OnFill(now, t)
			if fault {
				bk.Faults++
				bk.respond(now, t, true)
				return
			}
			if park {
				bk.Parked++
				return
			}
		}
		bk.serviceFill(now, t)
	case Upgrade:
		bk.processUpgrade(now, t)
	case WB:
		bk.processWB(now, t)
	}
}

func (bk *Bank) processInval(now uint64, t Txn) {
	bk.Invals++
	fault := false
	if bk.hook != nil {
		fault = bk.hook.OnInval(now, t.Addr, t.Core)
	}
	e := bk.entry(t.Addr)
	if t.Kind == InvalD {
		for c := e.dSharers.Next(0); c >= 0; c = e.dSharers.Next(c + 1) {
			if c != t.Core {
				bk.sys.L1D[c].extInval(t.Addr)
			}
		}
		e.dSharers.Reset()
		e.owner = -1
	} else {
		for c := e.iSharers.Next(0); c >= 0; c = e.iSharers.Next(c + 1) {
			if c != t.Core {
				bk.sys.L1I[c].extInval(t.Addr)
			}
		}
		e.iSharers.Reset()
	}
	resp := Txn{Kind: InvalAck, Addr: t.Addr, Core: t.Core, ID: t.ID, ReqKind: t.Kind, Err: fault}
	bk.sys.observe(now, t)
	// A dropped acknowledgement models a lost coherence message: the
	// invalidation above was applied, but the issuing core's token never
	// completes and its store buffer wedges — the cycle-limit watchdog
	// (and the chaos harness) must attribute that hang, not mask it.
	if bk.sys.chaos != nil && bk.sys.chaos.OnInvalAckDrop(now, resp) {
		return
	}
	bk.sys.pushResponse(bk.idx, resp, now+uint64(bk.sys.Cfg.L2Lat))
}

// serviceFill runs the normal fill path (directory + L2 array + miss path).
func (bk *Bank) serviceFill(now uint64, t Txn) {
	e := bk.entry(t.Addr)
	penalty := 0

	switch t.Kind {
	case GetS, GetI:
		if e.owner >= 0 && int(e.owner) != t.Core {
			// Pull the dirty line out of the owner's L1 (data is
			// functionally current in Memory already).
			bk.sys.L1D[e.owner].extDowngrade(t.Addr)
			e.owner = -1
			penalty += bk.sys.Cfg.OwnerFetchPenalty
		}
		if t.Kind == GetS {
			e.dSharers.Set(t.Core)
		} else {
			e.iSharers.Set(t.Core)
		}
	case GetM:
		had := false
		for c := e.dSharers.Next(0); c >= 0; c = e.dSharers.Next(c + 1) {
			if c != t.Core {
				bk.sys.L1D[c].extInval(t.Addr)
				had = true
			}
		}
		if e.owner >= 0 && int(e.owner) != t.Core {
			penalty += bk.sys.Cfg.OwnerFetchPenalty
		} else if had {
			penalty += bk.sys.Cfg.SharerInvalPenalty
		}
		e.dSharers.Reset()
		e.dSharers.Set(t.Core)
		e.owner = int16(t.Core)
	}

	if t.Kind == GetM {
		e.holder, e.delivered = int16(t.Core), 0
	}
	if bk.cache.Lookup(t.Addr) != Invalid {
		bk.Hits++
		bk.respondAt(t, now+uint64(bk.sys.Cfg.L2Lat+penalty))
		return
	}
	// L2 miss: forward to L3. Coalesce requests for the same line.
	bk.MissesToL3++
	la := t.Addr
	bk.pendMiss[la] = append(bk.pendMiss[la], t)
	if len(bk.pendMiss[la]) == 1 {
		bk.sys.l3.push(bk.idx, la, now+uint64(bk.sys.Cfg.L2Lat+penalty))
	}
}

func (bk *Bank) finishRefill(now uint64, t Txn) {
	bk.cache.Insert(t.Addr, Shared)
	// Non-inclusive: an L2 victim needs no back-invalidation; its data is
	// in Memory and the directory is untagged.
	reqs := bk.pendMiss[t.Addr]
	delete(bk.pendMiss, t.Addr)
	for i, r := range reqs {
		// Stagger multiple waiters by a cycle each.
		bk.respondAt(r, now+uint64(i))
	}
}

func (bk *Bank) respondAt(t Txn, ready uint64) {
	resp := Txn{
		Kind:      Fill,
		Addr:      t.Addr,
		Core:      t.Core,
		ID:        t.ID,
		ReqKind:   t.Kind,
		Exclusive: t.Kind == GetM,
		Prefetch:  t.Prefetch,
	}
	bk.sys.pushResponse(bk.idx, resp, ready)
}

// respond sends an (error) fill immediately.
func (bk *Bank) respond(now uint64, t Txn, errFill bool) {
	resp := Txn{
		Kind:    Fill,
		Addr:    t.Addr,
		Core:    t.Core,
		ID:      t.ID,
		ReqKind: t.Kind,
		Err:     errFill,
	}
	bk.sys.pushResponse(bk.idx, resp, now+1)
}

func (bk *Bank) processUpgrade(now uint64, t Txn) {
	bk.Upgrades++
	e := bk.entry(t.Addr)
	e.holder, e.delivered = int16(t.Core), 0
	penalty := 0
	for c := e.dSharers.Next(0); c >= 0; c = e.dSharers.Next(c + 1) {
		if c != t.Core {
			bk.sys.L1D[c].extInval(t.Addr)
			penalty = bk.sys.Cfg.SharerInvalPenalty
		}
	}
	e.dSharers.Reset()
	e.dSharers.Set(t.Core)
	e.owner = int16(t.Core)
	resp := Txn{Kind: UpgAck, Addr: t.Addr, Core: t.Core, ID: t.ID, ReqKind: t.Kind}
	bk.sys.pushResponse(bk.idx, resp, now+uint64(bk.sys.Cfg.L2Lat+penalty))
}

func (bk *Bank) processWB(now uint64, t Txn) {
	bk.WBs++
	e := bk.entry(t.Addr)
	e.dSharers.Clear(t.Core)
	if int(e.owner) == t.Core {
		e.owner = -1
	}
	bk.cache.Insert(t.Addr, Modified)
	_ = now
}

// dropSharer records a silent clean eviction.
func (bk *Bank) dropSharer(addr uint64, core int, icache bool) {
	e, ok := bk.dir[addr]
	if !ok {
		return
	}
	if icache {
		e.iSharers.Clear(core)
	} else {
		e.dSharers.Clear(core)
		if int(e.owner) == core {
			e.owner = -1
		}
	}
}

// nextEvent returns the earliest cycle at which this bank's Tick could do
// work: a refill completing, a queued request (including a grant-hold retry,
// whose ready time was advanced in place) becoming serviceable, or the hook
// releasing a parked fill.
func (bk *Bank) nextEvent(now uint64) (event uint64, ok bool) {
	consider := func(t uint64) {
		if !ok || t < event {
			event, ok = t, true
		}
	}
	for i := range bk.refillQ {
		consider(bk.refillQ[i].ready)
	}
	for i := range bk.inQ {
		consider(bk.inQ[i].ready)
	}
	if bk.work > 0 {
		if t, o := bk.hook.NextEvent(now); o {
			consider(t)
		}
	}
	return event, ok
}

// Quiet reports whether the bank has no queued or pending work.
func (bk *Bank) Quiet() bool {
	return len(bk.inQ) == 0 && len(bk.refillQ) == 0 && len(bk.pendMiss) == 0
}
