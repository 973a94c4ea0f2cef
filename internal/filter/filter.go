// Package filter implements the barrier filter of the paper, generalized to
// a per-bank synchronization engine: hardware tables attached to an L2 bank
// controller that provide synchronization by starving cache-line fills.
//
// Each participating thread owns two distinct cache lines, its arrival
// address and its exit address, allocated by the OS so that all of a
// barrier's lines map to the same L2 bank and so that the line index bits
// identify the thread (here: a fixed stride between consecutive threads'
// lines). The filter watches invalidation transactions (arrival and exit
// signals) and fill requests for those lines, and runs the per-thread
// finite-state automaton of Figure 3:
//
//	Waiting   --inval(arrival)-->  Blocking      (arrived-counter++)
//	Blocking  --fill(arrival)-->   Blocking      (fill parked, pending set)
//	(last arrival)                 all threads -> Servicing, fills released
//	Servicing --fill(arrival)-->   Servicing     (fill serviced normally)
//	Servicing --inval(exit)-->     Waiting
//
// All other transitions are protocol errors (§3.3.4) and produce
// error-coded responses that fault the offending core. A configurable
// hardware timeout releases parked fills with an error code so that a
// mis-sized barrier cannot starve a core forever.
//
// Beyond Figure 3, entries support an Evicted state modelling deallocation
// (barrier teardown or a forced capacity eviction): an evicted entry
// answers every subsequent invalidation or fill with an error-coded
// response — a stale tag is a protocol error, never a silent drop or a
// panic — until the OS reprograms it back to Waiting.
//
// That automaton is not specific to barriers (the SynCron generalization,
// PAPERS.md arXiv:2101.07557): EntryTable (engine.go) runs it once for every
// primitive kind, and a kind — the barrier Filter here, the hardware Lock in
// lock.go — adds only its grant rule.
package filter

import "repro/internal/mem"

// ThreadState is a barrier entry's 2-bit state of Figure 2/3, under the
// names the paper gives it.
type ThreadState EntryState

const (
	Waiting   = ThreadState(EntryIdle)      // waiting-on-arrival
	Blocking  = ThreadState(EntrySignalled) // blocked-until-release
	Servicing = ThreadState(EntryOpen)      // service-until-exit
	Evicted   = ThreadState(EntryEvicted)   // entry deallocated; stale accesses get error responses
)

func (s ThreadState) String() string { return BarrierKind.States[s] }

// Filter is one barrier's state table: the entry table over the arrival
// lines, plus what the barrier's grant rule needs — the exit tags,
// num-threads and the arrived-counter. The rule: an arrival invalidation
// signals, the NumThreads-th arrival grants everyone at once, an exit
// invalidation returns a thread to Waiting.
type Filter struct {
	EntryTable
	ExitBase uint64 // thread 0's exit line

	arrivedCounter int

	Arrivals, Openings uint64
}

// New creates a filter for nthreads threads whose arrival and exit line
// regions start at the given bases with the given stride. All threads start
// in the Waiting state and unregistered.
func New(name string, arrivalBase, exitBase, stride uint64, nthreads int) *Filter {
	f := &Filter{ExitBase: exitBase}
	f.EntryTable = newEntryTable(BarrierKind, f, name, arrivalBase, stride, nthreads)
	return f
}

// InitServicing puts every thread in the Servicing state. The ping-pong
// construction uses it for the twin barrier so that the first invocation's
// arrival invalidations are legal exits for the twin.
func (f *Filter) InitServicing() {
	for i := range f.states {
		f.states[i] = EntryOpen
	}
}

// State returns thread t's automaton state (test/diagnostic use).
func (f *Filter) State(t int) ThreadState { return ThreadState(f.states[t]) }

// ArrivedCount returns the arrived-counter (test/diagnostic use).
func (f *Filter) ArrivedCount() int { return f.arrivedCounter }

// ArrivalAddr returns thread t's arrival line address.
func (f *Filter) ArrivalAddr(t int) uint64 { return f.LineAddr(t) }

// ExitAddr returns thread t's exit line address.
func (f *Filter) ExitAddr(t int) uint64 { return f.ExitBase + uint64(t)*f.Stride }

// MatchExit resolves addr to a thread's exit entry.
func (f *Filter) MatchExit(addr uint64) (int, bool) { return f.matchRegion(f.ExitBase, addr) }

// onInval applies an invalidation to the filter's exit then arrival tags —
// an invalidation can be meaningful to both at once (in the ping-pong
// construction one barrier's arrival line is its twin's exit line).
func (f *Filter) onInval(now, addr uint64) (matched, fault bool) {
	if t, ok := f.MatchExit(addr); ok {
		matched = true
		if f.onExitInval(t) {
			fault = true
		}
	}
	if t, ok := f.MatchLine(addr); ok {
		matched = true
		if f.onArrivalInval(now, t) {
			fault = true
		}
	}
	return matched, fault
}

// onArrivalInval applies an arrival-address invalidation for thread t.
func (f *Filter) onArrivalInval(now uint64, t int) (fault bool) {
	if f.refuse("arrival inval", t) {
		return true
	}
	switch f.states[t] {
	case EntryIdle:
		f.states[t] = EntrySignalled
		f.arrivedCounter++
		f.Arrivals++
		// Before a possible open, so the last arriver's clock is part of
		// the release the open distributes.
		f.emit(mem.EvBarrierArrive, now, t)
		if f.arrivedCounter == f.NumThreads {
			f.open(now)
		}
		return false
	case EntrySignalled:
		if f.Strict {
			return f.fail("arrival inval for thread %d already Blocking", t)
		}
		return false
	default:
		return f.fail("arrival inval for thread %d in state %s", t, f.StateName(t))
	}
}

// open releases the barrier: every thread moves to Servicing and all parked
// fills are queued for service.
func (f *Filter) open(now uint64) {
	f.Openings++
	f.arrivedCounter = 0
	for t := range f.states {
		if f.states[t] != EntryEvicted { // a deallocated entry does not rejoin the barrier
			f.grantThread(t)
		}
	}
	// Every parked fill was just released (evicted entries park nothing),
	// so the whole expiry queue is dead.
	f.clearExpiry()
	f.emit(mem.EvBarrierOpen, now, -1)
}

// onExitInval applies an exit-address invalidation for thread t.
func (f *Filter) onExitInval(t int) (fault bool) {
	if f.refuse("exit inval", t) {
		return true
	}
	if f.states[t] != EntryOpen {
		return f.fail("exit inval for thread %d in state %s", t, f.StateName(t))
	}
	f.states[t] = EntryIdle
	return false
}

// onEvict rescinds an evicted thread's arrival, if it had signalled one,
// from the arrived-counter.
func (f *Filter) onEvict(t int, was EntryState) {
	if was == EntrySignalled {
		f.arrivedCounter--
	}
}

// UnarrivedThreads lists the registered thread entries still in the Waiting
// state (watchdog attribution: who a stalled barrier is waiting for).
func (f *Filter) UnarrivedThreads() []int {
	var out []int
	for t := range f.states {
		if f.valid[t] && f.states[t] == EntryIdle {
			out = append(out, t)
		}
	}
	return out
}
