package mem

import (
	"fmt"
	"sort"
)

// L1 is one private first-level cache (instruction or data). The owning
// core drives it with direct method calls during its pipeline tick; misses
// turn into bus transactions and complete when the matching response
// arrives.
type L1 struct {
	sys     *System
	core    int
	icache  bool
	changes uint32 // see willChange; 32 bits keep the struct's size class
	cache   *Cache

	mshr   []mshrEntry // one slot per MSHR; id 0 marks a free slot
	nmshr  int         // slots in use
	nextID uint64

	// OnExtInval is called whenever a line leaves this cache for any
	// reason other than the core's own cache-op: external invalidation,
	// downgrade-to-invalid, or capacity eviction. The CPU uses it to
	// clear LL/SC reservations.
	OnExtInval func(lineAddr uint64)

	// Statistics.
	Hits, Misses, FillsDone, MSHRFull uint64
}

type mshrEntry struct {
	addr     uint64 // line address
	id       uint64 // nonzero while the slot is in use
	kind     TxnKind
	prefetch bool
	born     uint64 // cycle the miss was issued (liveness watchdog)

	// A directory action can target a line whose fill is still in
	// flight (the grant happened at the bank before this request was
	// processed). The effect is remembered here and applied when the
	// fill installs, preserving the bank's serialization order.
	pendInval     bool
	pendDowngrade bool
}

func newL1(sys *System, core int, icache bool) *L1 {
	cfg := sys.Cfg
	name := fmt.Sprintf("L1D%d", core)
	max := cfg.MSHRs
	if icache {
		name = fmt.Sprintf("L1I%d", core)
		max = cfg.IMSHRs
	}
	return &L1{
		sys:    sys,
		core:   core,
		icache: icache,
		cache:  NewCache(name, cfg.L1Size, cfg.L1Assoc, cfg.LineBytes),
		mshr:   make([]mshrEntry, max),
	}
}

// findMSHR returns the in-use MSHR for line address la, nil when none.
func (l *L1) findMSHR(la uint64) *mshrEntry {
	for i := range l.mshr {
		if e := &l.mshr[i]; e.id != 0 && e.addr == la {
			return e
		}
	}
	return nil
}

// Present reports whether the line containing addr is readable here.
func (l *L1) Present(addr uint64) bool {
	if l.cache.Lookup(addr) != Invalid {
		l.Hits++
		return true
	}
	return false
}

// WriteState returns the coherence state of the line for a store: Modified
// means the store may perform now, Shared means an Upgrade is needed,
// Invalid means a GetM is needed.
func (l *L1) WriteState(addr uint64) LineState { return l.cache.Lookup(addr) }

// Peek returns the line's state without touching LRU order or hit counters
// (a side-effect-free probe for the quiescence check).
func (l *L1) Peek(addr uint64) LineState { return l.cache.Peek(addr) }

// MissPending reports whether a fill for addr's line is already in flight.
func (l *L1) MissPending(addr uint64) bool {
	return l.findMSHR(l.cache.LineAddr(addr)) != nil
}

// StartMiss allocates an MSHR and issues the bus request for addr's line.
// It returns false when no MSHR is available (the caller simply retries
// next cycle). If a fill for the line is already outstanding, the request
// piggybacks and StartMiss reports true.
func (l *L1) StartMiss(now uint64, addr uint64, kind TxnKind, prefetch bool) bool {
	la := l.cache.LineAddr(addr)
	if l.findMSHR(la) != nil {
		return true
	}
	if l.nmshr == len(l.mshr) {
		l.MSHRFull++
		return false
	}
	e := &l.mshr[0]
	for i := 1; e.id != 0; i++ {
		e = &l.mshr[i]
	}
	l.nextID++
	*e = mshrEntry{addr: la, id: l.nextID, kind: kind, prefetch: prefetch, born: now}
	l.nmshr++
	l.Misses++
	l.sys.pushRequest(Txn{
		Kind:     kind,
		Addr:     la,
		Core:     l.core,
		ID:       e.id,
		Prefetch: prefetch,
	}, now+1)
	return true
}

// onResponse completes an outstanding miss. A response whose MSHR has been
// squashed (context switch) is dropped, as §3.3.3 of the paper requires.
// It returns an error flag when the filter embedded an error code in the
// fill.
func (l *L1) onResponse(now uint64, t Txn) (errFill bool) {
	slot := l.findMSHR(t.Addr)
	if slot == nil || slot.id != t.ID {
		return false // stale response for a squashed MSHR
	}
	e := *slot
	*slot = mshrEntry{}
	l.nmshr--
	if t.Err {
		return true
	}
	l.FillsDone++
	if l.icache && l.sys.Cfg.L1INextLinePrefetch && !t.Prefetch && t.Kind == Fill {
		next := t.Addr + uint64(l.sys.Cfg.LineBytes)
		if l.cache.Peek(next) == Invalid {
			l.StartMiss(now, next, GetI, true)
		}
	}
	l.willChange()
	switch t.Kind {
	case Fill:
		if e.pendInval {
			// The line was invalidated (by a later-serialized GetM/
			// Upgrade/DCBI) between the bank's grant and this fill's
			// arrival: it arrives dead. Waiting loads re-request and
			// LL reservations never cover it.
			if l.OnExtInval != nil {
				l.OnExtInval(t.Addr)
			}
			break
		}
		st := Shared
		if t.Exclusive {
			st = Modified
		}
		if e.pendDowngrade {
			st = Shared
		}
		v := l.cache.Insert(t.Addr, st)
		l.evictVictim(now, v)
	case UpgAck:
		// The line may have been invalidated while the upgrade was in
		// flight (it lost the race to another core's GetM/Upgrade).
		// Do not resurrect it: the store retries with a fresh GetM,
		// which re-invalidates the winner through the directory.
		if l.cache.Peek(t.Addr) != Invalid {
			l.cache.SetState(t.Addr, Modified)
		}
	}
	return false
}

func (l *L1) evictVictim(now uint64, v Victim) {
	if !v.Valid {
		return
	}
	if l.OnExtInval != nil {
		l.OnExtInval(v.Addr)
	}
	if v.Dirty {
		// Data is already functionally in Memory; the writeback
		// transaction models the bus/directory cost.
		l.sys.pushRequest(Txn{Kind: WB, Addr: v.Addr, Core: l.core}, now+1)
	} else {
		// Clean lines are evicted silently; the directory tolerates
		// the staleness.
		l.sys.dirDropSharer(v.Addr, l.core, l.icache)
	}
}

// willChange counts a line change other than by a lookup (a fill, external
// invalidation or downgrade, injected state) and fires the change hook.
func (l *L1) willChange() {
	l.changes++
	if l.sys.onChange != nil {
		l.sys.onChange(l.core)
	}
}

// extInval removes a line at the directory's request.
func (l *L1) extInval(addr uint64) {
	if l.cache.Peek(addr) != Invalid {
		l.willChange()
	}
	present, _ := l.cache.Invalidate(addr)
	if present && l.OnExtInval != nil {
		l.OnExtInval(addr)
	}
	if e := l.findMSHR(addr); e != nil {
		e.pendInval = true
	}
}

// extDowngrade demotes a Modified line to Shared (data is already in
// Memory).
func (l *L1) extDowngrade(addr uint64) {
	if l.cache.Peek(addr) == Modified {
		l.willChange()
		l.cache.SetState(addr, Shared)
	}
	if e := l.findMSHR(addr); e != nil {
		e.pendDowngrade = true
		if l.OnExtInval != nil {
			l.OnExtInval(addr) // an in-flight exclusive grant loses its reservation
		}
	}
}

// localInval implements the core-local half of ICBI/DCBI: drop the line
// from this cache, reporting whether it was present and dirty.
func (l *L1) localInval(addr uint64) (present, dirty bool) {
	return l.cache.Invalidate(addr)
}

// Snapshot enumerates the valid lines of this cache in set order without
// side effects (sanitizer use).
func (l *L1) Snapshot() []CacheLine { return l.cache.Snapshot() }

// MissInfo describes one outstanding MSHR (sanitizer/watchdog use).
type MissInfo struct {
	Addr     uint64
	Kind     TxnKind
	Born     uint64
	Prefetch bool
}

// MissSnapshot enumerates the outstanding MSHRs sorted by line address, so
// the watchdog's choice of which wedged miss to report is deterministic.
func (l *L1) MissSnapshot() []MissInfo {
	out := make([]MissInfo, 0, l.nmshr)
	for _, e := range l.mshr {
		if e.id != 0 {
			out = append(out, MissInfo{Addr: e.addr, Kind: e.kind, Born: e.born, Prefetch: e.prefetch})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// InjectState forcibly rewrites the coherence state of a present line. It is
// a fault-injection seam only: it models a soft error in the tag/state array
// (the paper's caches hold no data, so the corruption is invisible to the
// functional results and detectable only by the coherence sanitizer).
func (l *L1) InjectState(addr uint64, st LineState) {
	l.willChange()
	l.cache.SetState(addr, st)
	l.sys.flipped = l.sys.flipped || st == Modified
}

// Changes counts the line changes willChange has seen.
func (l *L1) Changes() uint64 { return uint64(l.changes) }

// Quiet reports whether this cache has no outstanding misses.
func (l *L1) Quiet() bool { return l.nmshr == 0 }

// Frees counts the MSHRs released so far: every slot StartMiss took that
// onResponse (a fill or an error fill alike) or SquashMisses has freed. It
// never decreases. A line comes in only with its fill, whose MSHR it frees,
// so a caller that saw a line absent with its miss outstanding knows both
// still hold while Frees is unchanged. Derived, not stored: L1 sits at a
// size-class edge.
func (l *L1) Frees() uint64 { return l.nextID - uint64(l.nmshr) }

// SquashMisses drops all outstanding MSHRs (context switch support). Any
// in-flight responses for them will be ignored on arrival.
func (l *L1) SquashMisses() {
	clear(l.mshr)
	l.nmshr = 0
}
