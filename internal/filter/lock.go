// Hardware locks over the per-bank synchronization engine (the SynCron
// generalization of the barrier filter, PAPERS.md arXiv:2101.07557): a lock
// is one more typed table entry kind at the L2 bank controller, running the
// same entry table — line-tagged transaction protocol, parked-fill
// machinery, timeout, and eviction FSM — under a different grant rule.
//
// Each participating thread owns one lock line, L_t = Base + t*Stride, all
// mapping to the same L2 bank with the line index bits identifying the
// thread. The software protocol mirrors the data-cache barrier filter's:
//
//	acquire:  fence; dcbi 0(L_t); ld t6, 0(L_t); fence
//	release:  fence; dcbi 0(L_t)
//
// The acquire invalidation enqueues the thread on the lock's FIFO wait
// queue (grant is immediate when the lock is free); the following load is
// starved — parked on the shared parked-fill machinery — until the thread
// is granted the lock, and the trailing fence keeps the critical section
// behind the load's completion. A second invalidation from the holder is
// the release: it frees the lock and grants the next waiter by releasing
// its parked fill. The per-thread automaton:
//
//	Idle     --inval-->  Pending       (wait-queue append; grant if free)
//	Pending  --fill-->   Pending       (fill parked)
//	(grant)              Holding       (parked fills released)
//	Holding  --fill-->   Holding       (fill serviced normally)
//	Holding  --inval-->  Idle          (release; next waiter granted)
//
// Everything else is a protocol error with an error-coded response: a
// demand load in Idle ("load before acquire"), a duplicate acquire in
// Pending under Strict checking, and any access to an Evicted entry (stale
// tag). The hardware timeout releases a parked fill with an error code so
// that a lost release cannot starve a waiter forever, and fairness is
// FIFO: waiters are granted in arrival-invalidation order, with the expiry
// queue bounding how long the head can be starved.
package filter

import (
	"repro/internal/mem"
	"repro/internal/sim"
)

// LockState is a lock entry's 2-bit state, under the lock's names.
type LockState EntryState

const (
	LockIdle    = LockState(EntryIdle)      // not competing for the lock
	LockPending = LockState(EntrySignalled) // acquire signalled, waiting for grant
	LockHolding = LockState(EntryOpen)      // owns the lock
	LockEvicted = LockState(EntryEvicted)   // entry deallocated; stale accesses get error responses
)

func (s LockState) String() string { return LockKind.States[s] }

// Lock is one lock's state table: the entry table over the lock lines,
// plus what the lock's grant rule needs — the holder register and the FIFO
// wait queue. The rule: an invalidation from an Idle thread signals an
// acquire, one from the holder releases, and whenever the lock is free the
// oldest waiter is granted.
type Lock struct {
	EntryTable

	holder int            // thread holding the lock, -1 when free
	waitq  sim.Queue[int] // FIFO of Pending threads, in acquire order

	// Reported under sync.lock.* (see core.StatsReport).
	Acquires, Grants, Releases uint64
}

// NewLock creates a lock for nthreads threads whose per-thread lock lines
// start at base with the given stride. All threads start Idle and
// unregistered; the lock starts free.
func NewLock(name string, base, stride uint64, nthreads int) *Lock {
	l := &Lock{holder: -1}
	l.EntryTable = newEntryTable(LockKind, l, name, base, stride, nthreads)
	return l
}

// State returns thread t's automaton state (test/diagnostic use).
func (l *Lock) State(t int) LockState { return LockState(l.states[t]) }

// Holder returns the thread currently holding the lock, -1 when free.
func (l *Lock) Holder() int { return l.holder }

// WaitQueue returns a copy of the FIFO wait queue (diagnostics; may hold
// stale entries for threads no longer Pending, dropped lazily at grant).
func (l *Lock) WaitQueue() (q []int) {
	for i := 0; i < l.waitq.Len(); i++ {
		q = append(q, *l.waitq.At(i))
	}
	return q
}

// grant hands the lock to the oldest still-Pending waiter, releasing its
// parked fills (the starved acquire load completes) and reporting the
// grant to the probe. Wait-queue entries whose thread is no longer
// Pending (evicted since enqueueing) are discarded lazily.
func (l *Lock) grant(now uint64) {
	for l.waitq.Len() > 0 {
		t := l.waitq.Pop()
		if l.states[t] != EntrySignalled {
			continue
		}
		l.grantThread(t)
		l.holder = t
		l.Grants++
		l.emit(mem.EvLockGrant, now, t)
		return
	}
}

// onInval applies a lock-line invalidation: acquire when the thread is
// Idle, release when it is Holding.
func (l *Lock) onInval(now, addr uint64) (matched, fault bool) {
	t, ok := l.MatchLine(addr)
	if !ok {
		return false, false
	}
	if l.refuse("inval", t) {
		return true, true
	}
	switch l.states[t] {
	case EntryIdle:
		l.states[t] = EntrySignalled
		l.waitq.Push(t)
		l.Acquires++
		if l.holder < 0 {
			l.grant(now)
		}
	case EntrySignalled:
		if l.Strict {
			return true, l.fail("acquire inval for thread %d already Pending", t)
		}
	default: // EntryOpen
		l.states[t] = EntryIdle
		l.holder = -1
		l.Releases++
		l.emit(mem.EvLockRelease, now, t)
		l.grant(now)
	}
	return true, false
}

// onEvict frees the lock when its holder is deallocated and grants the next
// waiter — a deallocated holder must not wedge the queue. (An evicted
// waiter's stale queue entry is skipped by grant.)
func (l *Lock) onEvict(t int, was EntryState) {
	if l.holder == t {
		l.holder = -1
		// An evict-time grant is not a synchronization edge the probe
		// missed: the grantee's happens-before credit comes from the last
		// legitimate release, already folded into the lock's history.
		l.grant(0)
	}
}

// InjectHolder forcibly overwrites the holder register (fault-injection
// seam for the sanitizer's single-holder invariant).
func (l *Lock) InjectHolder(t int) { l.holder = t }
