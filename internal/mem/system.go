package mem

import (
	"fmt"
	"slices"

	"repro/internal/interconnect"
)

// timedTxn is one queued transaction with its earliest-processing cycle.
type timedTxn struct {
	txn   Txn
	ready uint64
}

// drainReady hands every entry of q ready at cycle now to fn, in queue
// order, and returns the rest, order kept, compacted in place. fn must not
// append to q.
func drainReady(q []timedTxn, now uint64, fn func(Txn)) []timedTxn {
	kept := q[:0]
	for _, e := range q {
		if e.ready > now {
			kept = append(kept, e)
		} else {
			fn(e.txn)
		}
	}
	return kept
}

// InvalToken is one outstanding ICBI/DCBI broadcast. The issuing core's
// store buffer holds the cache-op until InvalPending reports its ID
// acknowledged. Born is the cycle the broadcast was issued; the liveness
// watchdog uses it to spot tokens whose acknowledgement has been lost.
type InvalToken struct {
	ID   uint64
	Addr uint64
	Born uint64
}

// System is the whole memory hierarchy of the simulated CMP.
type System struct {
	Cfg   *Config
	Mem   *Memory
	fab   interconnect.Fabric[Txn]
	L1I   []*L1
	L1D   []*L1
	Banks []*Bank
	l3    *L3

	// OnFault is called when a response carries an error code (barrier
	// filter misuse or timeout). The machine maps it to a core fault.
	OnFault func(core int, t Txn)

	respInbox   []timedTxn
	invalTokens [][]InvalToken // per core, outstanding, in issue order
	nextInvalID []uint64

	// chaos is the optional fault injector (see chaos.go). nil = off.
	chaos ChaosHook

	// probe receives the memory-system events (see probe.go).
	probe Probe

	// wake[core] is invoked whenever a response (fill, upgrade ack, or
	// invalidation ack) is delivered to that core; the machine uses it to
	// wake the core if it sleeps.
	wake []func()

	onChange func(core int) // see SetChangeHook
	flipped  bool           // see Flipped
}

// NewSystem builds the memory hierarchy for cfg.
func NewSystem(cfg Config) *System {
	s := &System{
		Cfg:         &cfg,
		Mem:         NewMemory(),
		invalTokens: make([][]InvalToken, cfg.Cores),
		nextInvalID: make([]uint64, cfg.Cores),
		wake:        make([]func(), cfg.Cores),
	}
	fab, err := interconnect.New(cfg.Fabric, cfg.fabricGeometry(), interconnect.Delivery[Txn]{
		Req:  s.deliverReq,
		Resp: s.deliverResp,
	})
	if err != nil {
		// Validate catches fabric-geometry mismatches before construction;
		// reaching this is a caller bug, reported like the other internal
		// config panics so harness workers can recover and attribute it.
		panic(fmt.Errorf("mem: %v: %w", err, ErrConfig))
	}
	s.fab = fab
	for c := 0; c < cfg.Cores; c++ {
		s.L1I = append(s.L1I, newL1(s, c, true))
		s.L1D = append(s.L1D, newL1(s, c, false))
	}
	for b := 0; b < cfg.L2Banks; b++ {
		s.Banks = append(s.Banks, newBank(s, b))
	}
	s.l3 = newL3(s)
	return s
}

// L3Cache exposes the L3 for tests.
func (s *System) L3Cache() *L3 { return s.l3 }

func (s *System) deliverReq(bank int, t Txn, at uint64) {
	s.Banks[bank].push(t, at)
}

func (s *System) deliverResp(core int, t Txn, at uint64) {
	_ = core // == t.Core; the inbox dispatches on the transaction itself
	s.respInbox = append(s.respInbox, timedTxn{t, at})
}

// Fabric exposes the interconnect (stats, tests, topology probes).
func (s *System) Fabric() interconnect.Fabric[Txn] { return s.fab }

// FabricStats emits the fabric's counters as of cycle end, the first cycle
// not yet ticked, into set (core.StatsReport).
func (s *System) FabricStats(end uint64, set func(name string, v uint64)) { s.fab.StatsInto(end, set) }

// FabricName returns the fabric kind's short name ("bus", "xbar", "mesh").
func (s *System) FabricName() string { return s.fab.Kind().String() }

// ReqLinkName names the fabric link or port a request transaction crosses,
// for fault attribution.
func (s *System) ReqLinkName(t Txn) string {
	return s.fab.ReqLinkName(t.Core, s.Cfg.BankOf(t.Addr))
}

// RespLinkName names the fabric link or port a response from bank crosses.
func (s *System) RespLinkName(bank int, t Txn) string {
	return s.fab.RespLinkName(bank, t.Core)
}

// lineOccupancy returns the cycles one cache line occupies a fabric
// channel or link. The bus and the crossbar run at the paper's data-path
// width; the mesh's point-to-point links use their own (wider by default)
// width, MeshLinkBytesPerCycle.
func (s *System) lineOccupancy() uint64 {
	w := s.Cfg.DataBusBytesPerCycle
	if s.Cfg.Fabric == interconnect.KindMesh {
		w = s.Cfg.MeshLinkBytesPerCycle
	}
	if occ := s.Cfg.LineBytes / w; occ > 1 {
		return uint64(occ)
	}
	return 1
}

// reqOccupancy returns the number of cycles a request occupies a fabric
// channel: writebacks and dirty invalidations carry their line on the
// request path.
func (s *System) reqOccupancy(t Txn) uint64 {
	if t.Kind == WB || (t.Kind == InvalD && t.Dirty) {
		return s.lineOccupancy()
	}
	return 1
}

// respOccupancy returns the number of cycles a response occupies a fabric
// channel: line fills carry data, acks do not.
func (s *System) respOccupancy(t Txn) uint64 {
	if t.Kind == Fill && !t.Err {
		return s.lineOccupancy()
	}
	return 1
}

// pushRequest injects a request transaction into the fabric, available for
// arbitration at cycle ready. An attached chaos hook may delay the entry
// (its ready time moves out, so NextEvent stays exact) or reorder it ahead
// of the youngest entry the same core already has queued.
func (s *System) pushRequest(t Txn, ready uint64) {
	reorder := false
	if s.chaos != nil {
		var delay uint64
		delay, reorder = s.chaos.OnRequest(t, ready)
		ready += delay
	}
	s.fab.PushRequest(interconnect.Message[Txn]{
		Src:     t.Core,
		Dst:     s.Cfg.BankOf(t.Addr),
		Occ:     s.reqOccupancy(t),
		Payload: t,
	}, ready, reorder)
}

// pushResponse injects a response from bank into the fabric.
func (s *System) pushResponse(bank int, t Txn, ready uint64) {
	if s.chaos != nil {
		ready += s.chaos.OnResponse(bank, t, ready)
	}
	s.fab.PushResponse(interconnect.Message[Txn]{
		Src:     bank,
		Dst:     t.Core,
		Occ:     s.respOccupancy(t),
		Payload: t,
	}, ready)
}

// IssueCacheInval performs the core-local half of an ICBI/DCBI (drop the
// line from the issuing core's own L1) and broadcasts the invalidation. It
// returns the token's ID, never 0, which stays pending until the bank
// acknowledges.
func (s *System) IssueCacheInval(now uint64, core int, addr uint64, icache bool) uint64 {
	la := s.Cfg.LineAddr(addr)
	var dirty bool
	kind := InvalD
	if icache {
		s.L1I[core].localInval(la)
		kind = InvalI
	} else {
		_, dirty = s.L1D[core].localInval(la)
	}
	s.nextInvalID[core]++
	id := s.nextInvalID[core]
	s.invalTokens[core] = append(s.invalTokens[core], InvalToken{ID: id, Addr: la, Born: now})
	s.pushRequest(Txn{Kind: kind, Addr: la, Core: core, ID: id, Dirty: dirty}, now+1)
	return id
}

// InvalPending reports whether core's invalidation id is still unacknowledged.
func (s *System) InvalPending(core int, id uint64) bool { return s.invalIndex(core, id) >= 0 }

// invalIndex returns the position of core's outstanding token id, or -1.
func (s *System) invalIndex(core int, id uint64) int {
	for i, t := range s.invalTokens[core] {
		if t.ID == id {
			return i
		}
	}
	return -1
}

// Tick advances the memory system one cycle.
func (s *System) Tick(now uint64) {
	// 0. Let the fault injector act (it may append to respInbox or the
	// bus queues before this cycle's delivery and arbitration).
	if s.chaos != nil {
		s.chaos.Tick(now)
	}
	// 1. Deliver arrived responses to the L1s / inval tokens, in queue
	// order, compacting the rest in one pass. Only the fabric appends to
	// the inbox (in step 2), so nothing joins it during the pass.
	s.respInbox = drainReady(s.respInbox, now, func(t Txn) { s.dispatchResp(now, t) })
	// 2. Banks, then L3/DRAM, then the fabric grants new transfers.
	for _, bk := range s.Banks {
		bk.Tick(now)
	}
	s.l3.Tick(now)
	s.fab.Tick(now)
}

// SetWakeHook registers fn to run whenever a response is delivered to core.
func (s *System) SetWakeHook(core int, fn func()) { s.wake[core] = fn }

// SetChangeHook registers fn to run before a line of core's L1s changes by
// an external invalidation or downgrade, a fill or an injected state.
func (s *System) SetChangeHook(fn func(core int)) { s.onChange = fn }

// Flipped reports whether an injected state has made a line Modified in one
// L1 (L1.InjectState): other L1s may still hold it, and the owner's writes
// to it then invalidate no copy, so fire no change hook.
func (s *System) Flipped() bool { return s.flipped }

func (s *System) dispatchResp(now uint64, t Txn) {
	if fn := s.wake[t.Core]; fn != nil {
		fn()
	}
	defer s.observe(now, t)
	switch t.Kind {
	case InvalAck:
		if i := s.invalIndex(t.Core, t.ID); i >= 0 {
			s.invalTokens[t.Core] = slices.Delete(s.invalTokens[t.Core], i, i+1)
			if t.Err && s.OnFault != nil {
				s.OnFault(t.Core, t)
			}
		}
	case Fill, UpgAck:
		if t.Exclusive || t.Kind == UpgAck {
			s.Banks[s.Cfg.BankOf(t.Addr)].grantDelivered(t.Addr, t.Core, now)
		}
		l1 := s.L1D[t.Core]
		if t.ReqKind == GetI {
			l1 = s.L1I[t.Core]
		}
		if errFill := l1.onResponse(now, t); errFill && s.OnFault != nil {
			s.OnFault(t.Core, t)
		}
	}
}

// OldestInvalToken returns the core's longest-outstanding invalidation
// token: the head of its issue-ordered slice. A core issues at most one
// invalidation per cycle (the store-buffer drain runs once per Core.Tick,
// and an MTCore ticks one context per cycle), so tokens are issued at
// strictly increasing Born and the head is the oldest.
func (s *System) OldestInvalToken(core int) (tok InvalToken, ok bool) {
	if toks := s.invalTokens[core]; len(toks) > 0 {
		return toks[0], true
	}
	return InvalToken{}, false
}

// dirDropSharer records a silent clean eviction with the owning bank.
func (s *System) dirDropSharer(addr uint64, core int, icache bool) {
	s.Banks[s.Cfg.BankOf(addr)].dropSharer(addr, core, icache)
}

// NextEvent returns the earliest cycle at or after now at which Tick would
// do anything: deliver a response, grant or
// launch a fabric transfer, process a bank or L3 queue entry, or release a
// parked fill.
// ok=false means the hierarchy is completely idle and, absent new requests,
// no event will ever occur.
func (s *System) NextEvent(now uint64) (event uint64, ok bool) {
	consider := func(t uint64) {
		if t < now {
			t = now
		}
		if !ok || t < event {
			event, ok = t, true
		}
	}
	for i := range s.respInbox {
		consider(s.respInbox[i].ready)
	}
	if t, o := s.fab.NextEvent(now); o {
		consider(t)
	}
	for _, bk := range s.Banks {
		if t, o := bk.nextEvent(now); o {
			consider(t)
		}
	}
	if t, o := s.l3.nextEvent(); o {
		consider(t)
	}
	if s.chaos != nil {
		if t, o := s.chaos.NextEvent(now); o {
			consider(t)
		}
	}
	return event, ok
}

// Quiet reports whether nothing is in flight anywhere in the hierarchy
// (used by tests and by drain checks).
func (s *System) Quiet() bool {
	if len(s.respInbox) > 0 || !s.fab.Quiet() || !s.l3.Quiet() {
		return false
	}
	for _, bk := range s.Banks {
		if !bk.Quiet() {
			return false
		}
	}
	for c := 0; c < s.Cfg.Cores; c++ {
		if !s.L1I[c].Quiet() || !s.L1D[c].Quiet() {
			return false
		}
		if len(s.invalTokens[c]) > 0 {
			return false
		}
	}
	return true
}

// CoreQuiet reports whether one core has no outstanding misses or
// invalidations (the FENCE drain condition, together with the core's own
// LSQ/store-buffer state).
func (s *System) CoreQuiet(core int) bool {
	return s.L1I[core].Quiet() && s.L1D[core].Quiet() && len(s.invalTokens[core]) == 0
}
