package mem

// ChaosHook is the deterministic fault-injection seam of the memory system.
// A nil hook (the default) disables injection with zero overhead; when one
// is attached via SetChaosHook, the hierarchy consults it at every point a
// real machine could misbehave:
//
//   - OnRequest, at the moment a request transaction is injected into the
//     fabric's request path (delay and adjacent reordering);
//   - OnResponse, at the moment a response is enqueued on the data path
//     (late fills and late acks);
//   - OnInvalAckDrop, when a bank is about to acknowledge an ICBI/DCBI
//     (a dropped ack: the invalidation was applied but the issuing core is
//     never told);
//   - Tick/NextEvent, for spontaneous injections the hook schedules itself
//     (spurious fill responses, filter-table misuse transactions).
//
// Three rules keep injection compatible with the quiescent-core bulk
// fast-forward and with periodic sleep (DESIGN.md §6): delays must be
// applied by adjusting an entry's ready time at enqueue, so the existing
// next-event queries remain exact; Tick must act (and consume randomness)
// only at cycles the hook previously announced through NextEvent; and an
// injection reaches a core's L1s only through a response delivered to it
// (the wake hook) or through L1.willChange (the change hook). Under those
// rules a chaos run is bit-identical with the fast path on and off, and a
// sleeping core needs no exclusion. Action by action:
//
//   - delay and reorder act at enqueue, and a sleeper enqueues nothing;
//   - an ack drop needs an invalidation token, which CoreQuiet denies a
//     spinning sleeper (a quiescent one wakes on its other responses);
//   - spurious fills, misuse transactions and forced or lock evictions
//     reach a core only as responses, which fire the wake hook first;
//   - state flips and misuse invalidations change its lines only through
//     L1.willChange, which fires the change hook first; a flip to Modified
//     also lets its core write a line other L1Ds still hold, with no
//     invalidation, so it sets System.Flipped, and the machine's write
//     hook then wakes a sleeper whose L1D holds a written line;
//   - preemption (the harness, not this hook) runs between runs, where the
//     machine brings every sleeper up to date.
type ChaosHook interface {
	// OnRequest may delay a request (extra cycles added to its bus-ready
	// time) and/or reorder it ahead of the youngest entry already queued
	// by the same core, breaking the FIFO same-address ordering the
	// barrier sequences rely on.
	OnRequest(t Txn, ready uint64) (delay uint64, reorder bool)

	// OnResponse may delay a response (fill, upgrade ack, or inval ack)
	// on the data path.
	OnResponse(bank int, t Txn, ready uint64) (delay uint64)

	// OnInvalAckDrop reports whether the bank should silently drop the
	// acknowledgement for an applied invalidation.
	OnInvalAckDrop(now uint64, t Txn) (drop bool)

	// Tick runs once per memory-system cycle and may inject synthetic
	// transactions via InjectResponse/InjectRequest. It must only act at
	// cycles announced by NextEvent.
	Tick(now uint64)

	// NextEvent returns the next cycle at which Tick will act
	// spontaneously (ok=false: never, absent new traffic).
	NextEvent(now uint64) (uint64, bool)
}

// SetChaosHook attaches (or, with nil, detaches) a fault injector.
func (s *System) SetChaosHook(h ChaosHook) {
	s.chaos = h
}

// InjectResponse delivers a synthetic response transaction to its core at
// cycle at, as if it had crossed the data path. Responses whose ID matches
// no outstanding MSHR or invalidation token are dropped by the receivers,
// which is exactly the robustness property spurious-fill injection probes.
func (s *System) InjectResponse(t Txn, at uint64) {
	s.deliverResp(t.Core, t, at)
}

// InjectRequest places a synthetic request transaction on the fabric
// (subject to normal arbitration, and to the chaos hook's own OnRequest).
func (s *System) InjectRequest(t Txn, at uint64) {
	s.pushRequest(t, at)
}
