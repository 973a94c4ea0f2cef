package filter

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/sim"
)

// EntryState is the 2-bit per-thread state of a sync-engine table entry
// (Figure 2/3). Every primitive kind runs the same automaton over it:
//
//	Idle      --inval, accepted by the kind's rule-->  Signalled
//	Signalled --fill-->       Signalled  (fill parked)
//	Signalled --the kind's rule grants-->  Open  (parked fills released)
//	Open      --fill-->       Open       (fill serviced normally)
//	Open      --inval, accepted by the kind's rule-->  Idle
//	any       --evict-->      Evicted    (parked fills error-released)
//	Evicted   --reprogram-->  Idle
//
// A kind names the states after what they mean to it — ThreadState for
// barriers, LockState for locks — and owns the two rule edges; everything
// else is EntryTable's.
type EntryState int8

const (
	EntryIdle      EntryState = iota // not signalled: a demand fill is a protocol error
	EntrySignalled                   // signalled, not yet granted: fills park
	EntryOpen                        // granted: fills are serviced
	EntryEvicted                     // deallocated: every access gets an error response
)

// Kind is what primitive kinds differ in by name only: the nouns and state
// names that protocol-error strings, reports and invariant names are built
// from. Those strings reach cycle-limit reports and cached result bytes, so
// the values are pinned (transitions_test.go).
type Kind struct {
	Noun   string    // prefixes every protocol error; the stat and invariant namespace
	Label  string    // what blocked-core reports call a primitive of this kind
	States [4]string // the kind's names for EntryIdle..EntryEvicted
	hint   string    // diagnosis appended to a demand fill in EntryIdle
}

var (
	BarrierKind = &Kind{
		Noun: "filter", Label: "barrier",
		States: [4]string{"Waiting", "Blocking", "Servicing", "Evicted"},
		hint:   "load before invalidate?",
	}
	LockKind = &Kind{
		Noun: "lock", Label: "lock",
		States: [4]string{"Idle", "Pending", "Holding", "Evicted"},
		hint:   "load before acquire?",
	}
)

// Primitive is one typed entry of the per-bank synchronization engine: a
// table-resident hardware primitive (a phase-counted barrier Filter, a
// Lock) that watches invalidations and fills for its tagged lines. The
// entry table it embeds runs everything kind-agnostic — fills, parking,
// timeout, eviction, reprogramming, registration, error coding — so a kind
// supplies only its grant rule: which invalidations signal, what grants,
// and what an eviction does to that.
type Primitive interface {
	// Table is the entry table the primitive runs on.
	Table() *EntryTable
	// onInval shows the primitive an invalidation. matched reports whether
	// the address belongs to it; fault an attributed protocol error.
	onInval(now, addr uint64) (matched, fault bool)
	// onEvict tells the rule that entry t, until now in state was, has been
	// deallocated (its parked fills are already error-released).
	onEvict(t int, was EntryState)
}

// Counters is the statistics block every kind keeps per table.
type Counters struct {
	ParkedFills, Serviced, Errors, Timeouts          uint64
	Evictions, EvictErrors, Reprograms, DroppedFills uint64
}

// Add accumulates o into c (per-kind report totals).
func (c *Counters) Add(o *Counters) {
	c.ParkedFills += o.ParkedFills
	c.Serviced += o.Serviced
	c.Errors += o.Errors
	c.Timeouts += o.Timeouts
	c.Evictions += o.Evictions
	c.EvictErrors += o.EvictErrors
	c.Reprograms += o.Reprograms
	c.DroppedFills += o.DroppedFills
}

// EntryTable is one primitive's state table: a line tag per thread (valid
// bit, pending-fill bit, 2-bit state), and the single implementation of
// every transition that does not depend on the primitive's kind.
type EntryTable struct {
	Kind       *Kind
	Name       string
	Base       uint64 // thread 0's filtered line; thread t's is Base + t*Stride
	Stride     uint64 // line stride between consecutive threads
	NumThreads int

	// Strict applies the §3.3.4 checking semantics to a repeated signal
	// invalidation in EntrySignalled (Figure 3 tolerates it).
	Strict bool
	// Timeout releases a parked fill with an error code after this many
	// cycles (0 disables). It is read when a fill parks: the first fill
	// parked under a nonzero Timeout arms expiry for every fill parked here
	// so far, so set it before fills park (Machine.Install sets it before
	// Add).
	Timeout uint64

	states []EntryState
	valid  []bool
	rule   Primitive // the primitive this table belongs to; hears of evictions

	// parkBoard holds the parked fills, the release queue and the expiry
	// queue.
	parkBoard
	lastErr string

	// probe, when non-nil, receives the kind's synchronization events: a
	// barrier's accepted arrivals and its opening, a lock's grants and
	// releases. Timeout and evict releases are deliberately not reported —
	// they are protocol errors, not synchronization.
	probe mem.Probe

	Counters
}

func newEntryTable(kind *Kind, rule Primitive, name string, base, stride uint64, nthreads int) EntryTable {
	return EntryTable{
		Kind: kind, Name: name, Base: base, Stride: stride, NumThreads: nthreads,
		states:    make([]EntryState, nthreads),
		valid:     make([]bool, nthreads),
		rule:      rule,
		parkBoard: newParkBoard(nthreads),
	}
}

// Table implements Primitive for every kind that embeds an EntryTable.
func (e *EntryTable) Table() *EntryTable { return e }

// emit reports a synchronization event for thread t (-1 for none).
func (e *EntryTable) emit(kind mem.EventKind, now uint64, t int) {
	if e.probe != nil {
		e.probe.OnEvent(mem.Event{Kind: kind, Now: now, Core: t, Key: e.Base, N: e.NumThreads})
	}
}

// RegisterThread marks thread entry t valid (OS registration, §3.3.1).
func (e *EntryTable) RegisterThread(t int) error {
	if t < 0 || t >= e.NumThreads {
		return fmt.Errorf("%s %s: thread %d out of range", e.Kind.Noun, e.Name, t)
	}
	e.valid[t] = true
	return nil
}

// RegisterAll marks every entry valid.
func (e *EntryTable) RegisterAll() {
	for i := range e.valid {
		e.valid[i] = true
	}
}

// Registered reports whether thread entry t is valid (diagnostics).
func (e *EntryTable) Registered(t int) bool { return t >= 0 && t < e.NumThreads && e.valid[t] }

// Entry returns thread t's automaton state, kind-neutrally.
func (e *EntryTable) Entry(t int) EntryState { return e.states[t] }

// StateName returns thread t's automaton state under the kind's name.
func (e *EntryTable) StateName(t int) string { return e.Kind.States[e.states[t]] }

// LastError describes the most recent protocol error.
func (e *EntryTable) LastError() string { return e.lastErr }

// LineAddr returns thread t's filtered line (a barrier's arrival line, a
// lock's lock line).
func (e *EntryTable) LineAddr(t int) uint64 { return e.Base + uint64(t)*e.Stride }

// MatchLine resolves addr to the thread whose filtered line it is.
func (e *EntryTable) MatchLine(addr uint64) (int, bool) { return e.matchRegion(e.Base, addr) }

// matchRegion resolves addr within a region (base, Stride, NumThreads).
func (e *EntryTable) matchRegion(base, addr uint64) (int, bool) {
	if addr < base {
		return 0, false
	}
	d := addr - base
	if d%e.Stride != 0 {
		return 0, false
	}
	t := int(d / e.Stride)
	if t >= e.NumThreads {
		return 0, false
	}
	return t, true
}

func (e *EntryTable) fail(format string, args ...interface{}) bool {
	e.Errors++
	e.lastErr = fmt.Sprintf("%s %s: ", e.Kind.Noun, e.Name) + fmt.Sprintf(format, args...)
	return true
}

// refuse answers an invalidation (what names it in the error) for an entry
// that cannot take one — unregistered, or Evicted (a stale tag) — with the
// attributed error every kind shares. It returns false when the entry is
// live and the kind's rule should decide.
func (e *EntryTable) refuse(what string, t int) bool {
	if !e.valid[t] {
		return e.fail("%s for unregistered thread %d", what, t)
	}
	if e.states[t] == EntryEvicted {
		e.EvictErrors++
		return e.fail("%s for thread %d on an evicted entry", what, t)
	}
	return false
}

// grantThread opens thread t's entry and queues its parked fills for
// service: the one way a kind's rule lets a signalled thread through.
func (e *EntryTable) grantThread(t int) {
	e.states[t] = EntryOpen
	e.releaseThread(t, false)
}

// onFill decides the fate of a fill request for thread t's filtered line.
func (e *EntryTable) onFill(now uint64, t int, txn mem.Txn) (park, fault bool) {
	if !e.valid[t] {
		return false, e.fail("fill for unregistered thread %d", t)
	}
	switch e.states[t] {
	case EntrySignalled:
		e.ParkedFills++
		e.park(t, txn, now, e.Timeout > 0)
		return true, false
	case EntryOpen:
		e.Serviced++
		return false, false
	case EntryEvicted:
		// Stale tag: the entry was deallocated while a fill was in
		// flight. Every fill kind — demand, prefetch, instruction —
		// gets an error-coded response, never a park.
		e.EvictErrors++
		return false, e.fail("fill for thread %d on an evicted entry (stale tag)", t)
	default: // EntryIdle
		if txn.Prefetch || txn.Kind == mem.GetI {
			// Hardware prefetches and instruction fetches are
			// inherently speculative (wrong-path fetch can touch a
			// filtered line); they are filtered, never faulted, so
			// they can neither open nor observe the primitive early:
			// parked until the thread is granted or the timeout
			// reclaims them.
			e.park(t, txn, now, e.Timeout > 0)
			return true, false
		}
		return false, e.fail("fill for thread %d in state %s (%s)", t, e.Kind.States[EntryIdle], e.Kind.hint)
	}
}

// popReleased yields one ready-to-service fill, honouring the timeout.
func (e *EntryTable) popReleased(now uint64) (mem.Txn, bool, bool) {
	return e.parkBoard.popReleased(now, e.Timeout, &e.Timeouts)
}

// nextEvent returns the earliest cycle at which popReleased could yield a
// fill without any new invalidation arriving: immediately when the release
// queue is non-empty, or at the earliest live parked fill's timeout expiry.
func (e *EntryTable) nextEvent(now uint64) (event uint64, ok bool) {
	return e.parkBoard.nextEvent(now, e.Timeout)
}

// EvictThread deallocates thread t's entry (teardown or a forced capacity
// eviction): parked fills are released with an error code so the issuing
// core faults instead of starving, the entry moves to Evicted — where every
// later inval or fill is answered with an error-coded response until
// ReprogramThread revalidates it — and the kind's rule is told, so that a
// signal already counted is rescinded or a freed resource handed on.
// Evicting an already-evicted entry is a no-op: hardware deallocation is
// idempotent.
func (e *EntryTable) EvictThread(t int) error {
	if t < 0 || t >= e.NumThreads {
		return fmt.Errorf("%s %s: evict: thread %d out of range", e.Kind.Noun, e.Name, t)
	}
	was := e.states[t]
	if was == EntryEvicted {
		return nil
	}
	e.EvictErrors += uint64(e.releaseThread(t, true))
	e.states[t] = EntryEvicted
	e.Evictions++
	e.rule.onEvict(t, was)
	return nil
}

// evictAll deallocates every thread entry (teardown/retire).
func (e *EntryTable) evictAll() {
	for t := 0; t < e.NumThreads; t++ {
		_ = e.EvictThread(t) // in range by construction
	}
}

// ReprogramThread revalidates an Evicted entry for a new epoch: the thread
// restarts in EntryIdle as if freshly registered. Reprogramming a live entry
// is a protocol error (it would silently discard the primitive's state).
func (e *EntryTable) ReprogramThread(t int) error {
	if t < 0 || t >= e.NumThreads {
		return fmt.Errorf("%s %s: reprogram: thread %d out of range", e.Kind.Noun, e.Name, t)
	}
	if e.states[t] != EntryEvicted {
		e.fail("reprogram of thread %d in state %s", t, e.StateName(t))
		return fmt.Errorf("%s", e.lastErr)
	}
	e.states[t] = EntryIdle
	e.valid[t] = true
	e.Reprograms++
	return nil
}

// DropParked silently discards parked fills issued by the given physical
// core (OS deschedule, §3.3.3): the core's MSHRs were squashed, so a later
// release would be dropped as stale anyway. The thread's signal, if already
// accepted, stays in force — the rescheduled thread re-issues the load,
// parks again, and the grant finds the re-issued fill. Returns the number of
// fills dropped.
func (e *EntryTable) DropParked(core int) int {
	n := e.dropParked(core)
	e.DroppedFills += uint64(n)
	return n
}

// ParkedFill is a read-only view of one withheld fill (sanitizer and
// diagnostic use).
type ParkedFill struct {
	Thread   int
	ParkedAt uint64
	Txn      mem.Txn
}

// InjectState forcibly overwrites a thread entry's automaton state. It is a
// fault-injection seam only (soft error in the table's state bits), used to
// prove the sanitizer catches table corruption.
func (e *EntryTable) InjectState(t int, st EntryState) { e.states[t] = st }

// parked is one withheld fill request.
type parked struct {
	txn      mem.Txn
	parkedAt uint64
	seq      uint64 // unique park id, links the fill to its expiry entry
}

// expiryEnt indexes one parked fill for earliest-expiry timeout tracking.
type expiryEnt struct {
	at     uint64
	seq    uint64
	thread int
}

type releaseEnt struct {
	txn mem.Txn
	err bool
}

// parkBoard is the parked-fill machinery under every entry table:
// per-thread withheld fills, the release queue, and the park-ordered expiry
// queue for exact timeout tracking. Parks happen in nondecreasing cycle
// order, so appending keeps the expiry queue sorted by park time; entries
// whose fill has since been released, dropped, or evicted are discarded
// lazily when they reach the head.
//
// The board's work is what popReleased may yield: its queued releases, plus
// its expiry entries once a timed park has armed them. The hosting bank
// keeps the sum over its boards in *host, current on every change here, so
// the L2 bank skips an idle hook without calling it.
type parkBoard struct {
	pending  [][]parked // parked fills per thread (2 possible after a context switch)
	releaseQ sim.Queue[releaseEnt]
	expiry   sim.Queue[expiryEnt] // parked fills in park order, for exact timeout expiry
	parkSeq  uint64
	armed    bool // expiry entries count as work (a fill parked under a timeout)
	host     *int // the hosting bank's work count; nil when not hosted
}

// work is the board's share of its host's count.
func (pb *parkBoard) work() int {
	if pb.armed {
		return pb.releaseQ.Len() + pb.expiry.Len()
	}
	return pb.releaseQ.Len()
}

// bump moves the host's count by d.
func (pb *parkBoard) bump(d int) {
	if pb.host != nil {
		*pb.host += d
	}
}

// dropExpiryHead discards the expiry queue's head.
func (pb *parkBoard) dropExpiryHead() {
	pb.expiry.Pop()
	if pb.armed {
		pb.bump(-1)
	}
}

// clearExpiry discards the whole expiry queue (every parked fill is gone).
func (pb *parkBoard) clearExpiry() {
	if pb.armed {
		pb.bump(-pb.expiry.Len())
	}
	pb.expiry.Reset()
}

func newParkBoard(nthreads int) parkBoard {
	return parkBoard{pending: make([][]parked, nthreads)}
}

// park withholds a fill for thread t and indexes it for timeout expiry;
// timed (a nonzero timeout) arms expiry.
func (pb *parkBoard) park(t int, txn mem.Txn, now uint64, timed bool) {
	if timed && !pb.armed {
		pb.armed = true
		pb.bump(pb.expiry.Len())
	}
	pb.parkSeq++
	pb.pending[t] = append(pb.pending[t], parked{txn: txn, parkedAt: now, seq: pb.parkSeq})
	pb.expiry.Push(expiryEnt{at: now, seq: pb.parkSeq, thread: t})
	if pb.armed {
		pb.bump(1)
	}
}

// releaseThread moves every fill parked for thread t to the release queue
// with the given error coding and returns how many moved.
func (pb *parkBoard) releaseThread(t int, err bool) int {
	n := len(pb.pending[t])
	for _, p := range pb.pending[t] {
		pb.releaseQ.Push(releaseEnt{txn: p.txn, err: err})
	}
	pb.pending[t] = pb.pending[t][:0]
	pb.bump(n)
	return n
}

// popReleased yields one ready-to-service fill, honouring the timeout.
// Timeout expiry walks the park-ordered expiry queue instead of rescanning
// every parked fill: the head is the earliest park still possibly live, and
// dead heads are discarded on the way. timeouts is bumped when a fill is
// error-released by expiry.
func (pb *parkBoard) popReleased(now, timeout uint64, timeouts *uint64) (mem.Txn, bool, bool) {
	if pb.releaseQ.Len() > 0 {
		r := pb.releaseQ.Pop()
		pb.bump(-1)
		return r.txn, r.err, true
	}
	if timeout > 0 {
		for pb.expiry.Len() > 0 {
			e := *pb.expiry.Front()
			if pb.parkedAlive(e.thread, e.seq) && now-e.at < timeout {
				break
			}
			pb.dropExpiryHead()
			if txn, ok := pb.takeParked(e.thread, e.seq); ok {
				*timeouts++
				return txn, true, true
			}
		}
	}
	return mem.Txn{}, false, false
}

// takeParked removes and returns thread t's parked fill with the given park
// id; ok=false when it has already been released, dropped, or evicted.
func (pb *parkBoard) takeParked(t int, seq uint64) (mem.Txn, bool) {
	for i, p := range pb.pending[t] {
		if p.seq == seq {
			txn := p.txn
			pb.pending[t] = append(pb.pending[t][:i], pb.pending[t][i+1:]...)
			return txn, true
		}
	}
	return mem.Txn{}, false
}

// nextEvent returns the earliest cycle at which popReleased could yield a
// fill without any new invalidation arriving. Dead expiry entries at the
// head are discarded as a side effect, which is invisible to callers.
func (pb *parkBoard) nextEvent(now, timeout uint64) (event uint64, ok bool) {
	if pb.releaseQ.Len() > 0 {
		return now, true
	}
	if timeout == 0 {
		return 0, false
	}
	for pb.expiry.Len() > 0 {
		e := pb.expiry.Front()
		if pb.parkedAlive(e.thread, e.seq) {
			return e.at + timeout, true
		}
		pb.dropExpiryHead()
	}
	return 0, false
}

// parkedAlive reports whether thread t still holds the parked fill with the
// given park id.
func (pb *parkBoard) parkedAlive(t int, seq uint64) bool {
	for _, p := range pb.pending[t] {
		if p.seq == seq {
			return true
		}
	}
	return false
}

// dropParked silently discards parked fills issued by the given physical
// core and returns how many were dropped.
func (pb *parkBoard) dropParked(core int) int {
	n := 0
	for t := range pb.pending {
		kept := pb.pending[t][:0]
		for _, p := range pb.pending[t] {
			if p.txn.Core == core {
				n++
				continue
			}
			kept = append(kept, p)
		}
		pb.pending[t] = kept
	}
	return n
}

// parkedThreadOf returns the thread entry holding a parked fill issued by
// the given physical core, for blocked-core attribution in deadlock
// reports. ok=false when the core has nothing parked here.
func (pb *parkBoard) parkedThreadOf(core int) (thread int, ok bool) {
	for t := range pb.pending {
		for _, p := range pb.pending[t] {
			if p.txn.Core == core {
				return t, true
			}
		}
	}
	return 0, false
}

// PendingFor returns how many fills are parked for thread t (tests).
func (pb *parkBoard) PendingFor(t int) int { return len(pb.pending[t]) }

// ParkedDump enumerates every withheld fill in thread order.
func (pb *parkBoard) ParkedDump() []ParkedFill {
	var out []ParkedFill
	for t := range pb.pending {
		for _, p := range pb.pending[t] {
			out = append(out, ParkedFill{Thread: t, ParkedAt: p.parkedAt, Txn: p.txn})
		}
	}
	return out
}
