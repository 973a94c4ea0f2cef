package filter

import (
	"errors"
	"fmt"

	"repro/internal/mem"
)

// ErrNoCapacity is returned by Add when installing a primitive
// would exceed the bank's entry capacity. Allocations that hit it are
// expected to spill to a software path and be attributed as
// filter.overflow_spills — capacity pressure degrades, it never wedges.
var ErrNoCapacity = errors.New("filter table capacity exhausted")

// maxRetired bounds the retired-primitive list per bank; the oldest retiree
// is forgotten first. Eight matches the default slot count: a tag can stay
// stale-detectable for at least one full generation of replacements.
const maxRetired = 8

// BankFilters is the per-bank synchronization engine: it aggregates the
// typed sync primitives hosted by one L2 bank controller — barrier filters
// and hardware locks — and implements mem.BankHook. The hardware holds up
// to Slots primitives and at most Cap table entries across all of them;
// allocation, capacity spill, eviction, and migration-safe retire apply
// uniformly to every primitive kind. An invalidation can be meaningful to
// two primitives at once — in the ping-pong construction one barrier's
// arrival line is its twin's exit line — so invalidations are shown to
// every matching primitive.
//
// (The name predates the generalization to locks; it is kept because the
// hook's identity — and the filter.* statistics namespace — is pinned by
// the golden differentials.)
type BankFilters struct {
	Slots int
	// Cap bounds the total table entries (one per thread per primitive)
	// the bank can hold; 0 means unbounded.
	Cap     int
	prims   []Primitive
	retired []Primitive
	probe   mem.Probe

	// work counts what PopReleased may find across the hosted and retired
	// primitives: their queued releases plus armed expiry entries. It is
	// the L2 bank's count once the bank binds it (BindWork), else the
	// hook's own. Each table's parkBoard keeps it current; Add, Remove,
	// Retire and the retired list's truncation move a table's share in and
	// out.
	work *int

	// Spills counts allocations refused for entry capacity (the
	// filter.overflow_spills statistic).
	Spills uint64
}

var _ mem.BankHook = (*BankFilters)(nil)

// NewBankFilters creates a hook with capacity for slots primitives.
func NewBankFilters(slots int) *BankFilters {
	return &BankFilters{Slots: slots, work: new(int)}
}

// BindWork moves the pending-work count into w, the count of the bank this
// hook is attached to, and points every table's share at it.
func (b *BankFilters) BindWork(w *int) {
	*w = *b.work
	b.work = w
	for _, ps := range [2][]Primitive{b.prims, b.retired} {
		for _, p := range ps {
			p.Table().host = w
		}
	}
}

// Add installs a primitive — a barrier filter or any other kind — failing
// when the bank's slots are exhausted or when its entry capacity would
// overflow (the OS then falls back to a software path, §3.3.1).
func (b *BankFilters) Add(p Primitive) error {
	t := p.Table()
	if len(b.prims) >= b.Slots {
		return fmt.Errorf("filter: bank has no free filter slots (%d in use)", b.Slots)
	}
	if b.Cap > 0 && b.Entries()+t.NumThreads > b.Cap {
		b.Spills++
		return fmt.Errorf("%w: bank holds %d of %d entries, %s %s needs %d",
			ErrNoCapacity, b.Entries(), b.Cap, t.Kind.Noun, t.Name, t.NumThreads)
	}
	t.probe = b.probe
	b.host(t)
	b.prims = append(b.prims, p)
	return nil
}

// host points t's work count at this bank and adds its share.
func (b *BankFilters) host(t *EntryTable) {
	t.host = b.work
	*b.work += t.work()
}

// unhost takes t's share back out of this bank.
func (b *BankFilters) unhost(t *EntryTable) {
	*b.work -= t.work()
	t.host = nil
}

// AddLock is Add; benchmark/ (frozen) installs its lock under this name.
func (b *BankFilters) AddLock(l *Lock) error { return b.Add(l) }

// SetProbe attaches p to every primitive the bank hosts now or later (nil
// detaches). Retired primitives are included: a stale-tag arrival can still
// reach their FSMs, and the probe must not silently miss it.
func (b *BankFilters) SetProbe(p mem.Probe) {
	b.probe = p
	for _, ps := range [2][]Primitive{b.prims, b.retired} {
		for _, q := range ps {
			q.Table().probe = p
		}
	}
}

// Remove swaps a primitive out (OS barrier swap, §3.3.3).
func (b *BankFilters) Remove(p Primitive) {
	for i, x := range b.prims {
		if x == p {
			b.unhost(p.Table())
			b.prims = append(b.prims[:i], b.prims[i+1:]...)
			return
		}
	}
}

// Retire tears a primitive down for good (barrier teardown): every entry
// is evicted — parked fills are error-released — and the primitive moves to
// the bank's retired list, where its tags keep answering stale invals and
// fills with error-coded responses instead of silently ignoring them.
func (b *BankFilters) Retire(p Primitive) {
	b.Remove(p)
	b.host(p.Table())
	p.Table().evictAll()
	b.retired = append(b.retired, p)
	if n := len(b.retired) - maxRetired; n > 0 {
		for _, old := range b.retired[:n] {
			b.unhost(old.Table())
		}
		b.retired = b.retired[n:]
	}
}

// InUse returns the number of occupied slots.
func (b *BankFilters) InUse() int { return len(b.prims) }

// Entries returns the occupied table entries across the live primitives (a
// primitive consumes one entry per participating thread). Retired
// primitives no longer hold entries — only tags.
func (b *BankFilters) Entries() int {
	n := 0
	for _, p := range b.prims {
		n += p.Table().NumThreads
	}
	return n
}

// Hosted returns the live primitives in slot order: the one enumeration
// diagnostics, the sanitizer, statistics and fault injection walk. The
// slice is the bank's own; callers must not modify it.
func (b *BankFilters) Hosted() []Primitive { return b.prims }

// Retired returns the retired primitives whose tags still answer stale
// accesses, oldest first.
func (b *BankFilters) Retired() []Primitive { return b.retired }

// OnInval shows an invalidation to every live primitive that recognizes
// the address. When no live primitive matches, the retired list is
// consulted: an inval for a deallocated primitive's lines is a stale tag,
// and every entry there is Evicted, so the FSM answers it with an
// error-coded response.
func (b *BankFilters) OnInval(now uint64, addr uint64, core int) (fault bool) {
	matched := false
	for _, p := range b.prims {
		if m, f := p.onInval(now, addr); m {
			matched = true
			if f {
				fault = true
			}
		}
	}
	if matched {
		return fault
	}
	for _, p := range b.retired {
		if _, f := p.onInval(now, addr); f {
			fault = true
		}
	}
	return fault
}

// OnFill consults the primitive owning the line, if any. Live primitives
// take precedence; a fill matching only a retired primitive's tag hits an
// Evicted entry and gets an error-coded response.
func (b *BankFilters) OnFill(now uint64, t mem.Txn) (park, fault bool) {
	for _, ps := range [2][]Primitive{b.prims, b.retired} {
		for _, p := range ps {
			e := p.Table()
			if tid, ok := e.MatchLine(t.Addr); ok {
				return e.onFill(now, tid, t)
			}
		}
	}
	return false, false
}

// PopReleased round-robins over the primitives' release queues, including
// retired primitives still draining evict-time error releases. The bank
// calls it only while the work count is nonzero.
func (b *BankFilters) PopReleased(now uint64) (mem.Txn, bool, bool) {
	for _, ps := range [2][]Primitive{b.prims, b.retired} {
		for _, p := range ps {
			if t, errFill, ok := p.Table().popReleased(now); ok {
				return t, errFill, ok
			}
		}
	}
	return mem.Txn{}, false, false
}

// NextEvent is the next-event query the simulator's bulk fast-forward
// asks a bank with pending work: the earliest cycle at which any hosted
// primitive could spontaneously produce work (a queued release, or a
// parked fill hitting its timeout). ok=false when none will act without
// new input.
func (b *BankFilters) NextEvent(now uint64) (event uint64, ok bool) {
	for _, ps := range [2][]Primitive{b.prims, b.retired} {
		for _, p := range ps {
			if t, o := p.Table().nextEvent(now); o && (!ok || t < event) {
				event, ok = t, true
			}
		}
	}
	return event, ok
}

// LastError reports the most recent protocol error across the bank's
// primitives, live and retired.
func (b *BankFilters) LastError() string {
	for _, ps := range [2][]Primitive{b.prims, b.retired} {
		for _, p := range ps {
			if e := p.Table().lastErr; e != "" {
				return e
			}
		}
	}
	return ""
}

// DropParked discards parked fills issued by the given physical core
// across the bank's live primitives (OS deschedule; retired primitives
// hold no parked fills). Returns the number of fills dropped.
func (b *BankFilters) DropParked(core int) int {
	n := 0
	for _, p := range b.prims {
		n += p.Table().DropParked(core)
	}
	return n
}

// BlockedOn reports which slot's primitive holds a parked fill from the
// given physical core: the slot index, the primitive, and the thread entry
// the fill belongs to. ok=false when the core is not parked in this bank.
func (b *BankFilters) BlockedOn(core int) (slot int, p Primitive, thread int, ok bool) {
	for i, p := range b.prims {
		if t, o := p.Table().parkedThreadOf(core); o {
			return i, p, t, true
		}
	}
	return 0, nil, 0, false
}
