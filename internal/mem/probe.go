package mem

// EventKind names what an Event reports; each constant lists the fields set.
type EventKind uint8

const (
	EvCommit        EventKind = iota + 1 // an instruction retires: Core, PC, Next, Dest (-1: none), Value
	EvLoad                               // a load commits: Core, PC, Addr, Size
	EvStore                              // a store performs (store-buffer drain, SC success): Core, PC, Addr, Size
	EvMem                                // a response delivered, an invalidation applied, a parked fill released: Txn
	EvBarrierArrive                      // a barrier filter or the barrier network counts thread Core's arrival: Core, Key, N
	EvBarrierOpen                        // the last arrival opens the barrier: Key, N (Core -1)
	EvLockGrant                          // a hardware lock is granted to thread Core: Core, Key, N
	EvLockRelease                        // thread Core releases it: Core, Key, N
)

// Event is one record of the simulator's read-only event stream; the fields
// its Kind does not list are zero. Core is the logical core (the SPMD thread
// id) for the core-side kinds and the thread entry for the sync kinds; an
// EvMem Txn.Core is the physical core. Loads are reported at commit
// (wrong-path loads never commit) and stores when they perform, both beyond
// misprediction recovery. A sync primitive's Key is its thread 0's filtered
// line: the allocator hands each line out once and a bank resolves a
// filtered line to a single primitive, so two live primitives never share
// one. A barrier-network barrier's Key is its id, a small counter below
// core.TextBase, so it never equals a filtered line. N is the thread count.
type Event struct {
	Kind                EventKind
	Core, Size, Dest, N int
	Now, PC, Next, Addr uint64
	Value, Key          uint64
	Txn                 Txn
}

// Probe receives the event stream. It must be strictly read-only. A core
// with a probe attached never sleeps periodically (cpu.Core.CheckPeriodic),
// since the commits it skipped would vanish from the stream; beyond that no
// emitter consults it (NextEvent included), so a run is bit-identical with
// any probe attached, fast path on or off. Each emitter — a core, the
// memory system, a sync-engine table — holds at most one probe; with none
// attached an emitting site costs one nil check.
type Probe interface{ OnEvent(e Event) }

// SetProbe attaches p to the memory system's transactions (nil detaches).
func (s *System) SetProbe(p Probe) { s.probe = p }

func (s *System) observe(now uint64, t Txn) {
	if s.probe != nil {
		s.probe.OnEvent(Event{Kind: EvMem, Now: now, Txn: t})
	}
}
