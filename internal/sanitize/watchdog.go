package sanitize

import (
	"fmt"
	"strings"

	"repro/internal/filter"
)

// checkLiveness is the transaction/core liveness watchdog. It flags:
//
//   - an invalidation token outstanding longer than TxnBudget (a lost
//     acknowledgement — the issuing core's store buffer is wedged);
//   - an L1 miss outstanding longer than TxnBudget that is *not* parked in
//     the sync engine (a fill parked at a barrier or a lock may legitimately
//     wait forever; a non-parked one means a response was lost);
//   - the whole machine making no forward progress for StallBudget cycles.
//     The report classifies every running core as either legitimately
//     blocked on a primitive (its fill is withheld by a named table slot)
//     or lost, and names the threads each stalled barrier is waiting for
//     and each held lock's holder — the stalled-vs-blocked distinction of
//     DESIGN.md §8.
func (s *Sanitizer) checkLiveness(now uint64) {
	// Forward-progress bookkeeping, per logical core.
	for i, c := range s.cores {
		if c.Committed != s.lastCommitted[i] {
			s.lastCommitted[i] = c.Committed
			s.lastChange[i] = now
		}
	}

	parked := s.parkedSet()

	for p := 0; p < s.sys.Cfg.Cores; p++ {
		if tok, ok := s.sys.OldestInvalToken(p); ok && now-tok.Born > s.cfg.TxnBudget {
			s.record(Violation{
				Cycle: now, Checker: "liveness", Invariant: "liveness.lost-inval-ack",
				Addr: tok.Addr, Core: p, Bank: s.sys.Cfg.BankOf(tok.Addr), Slot: -1, Thread: -1,
				Detail: fmt.Sprintf("invalidation issued at cycle %d still unacknowledged after %d cycles (store buffer wedged)", tok.Born, now-tok.Born),
			})
		}
		s.checkMissAges(now, p, parked)
	}

	s.checkGlobalStall(now)
}

// parkedSet collects (core, line) pairs currently withheld by any hosted
// primitive, whatever its kind, so the miss-age check can exempt them.
func (s *Sanitizer) parkedSet() map[[2]uint64]bool {
	set := make(map[[2]uint64]bool)
	for _, h := range s.hooks {
		if h == nil {
			continue
		}
		for _, prim := range h.Hosted() {
			for _, p := range prim.Table().ParkedDump() {
				set[[2]uint64{uint64(p.Txn.Core), p.Txn.Addr}] = true
			}
		}
	}
	return set
}

// checkMissAges flags non-parked misses older than TxnBudget on one
// physical core's L1s.
func (s *Sanitizer) checkMissAges(now uint64, p int, parked map[[2]uint64]bool) {
	for _, m := range s.sys.L1D[p].MissSnapshot() {
		if parked[[2]uint64{uint64(p), m.Addr}] || now-m.Born <= s.cfg.TxnBudget {
			continue
		}
		s.record(Violation{
			Cycle: now, Checker: "liveness", Invariant: "liveness.lost-fill",
			Addr: m.Addr, Core: p, Bank: s.sys.Cfg.BankOf(m.Addr), Slot: -1, Thread: -1,
			Detail: fmt.Sprintf("L1D %s miss issued at cycle %d still outstanding after %d cycles and not parked at a filter", m.Kind, m.Born, now-m.Born),
		})
	}
	for _, m := range s.sys.L1I[p].MissSnapshot() {
		if parked[[2]uint64{uint64(p), m.Addr}] || now-m.Born <= s.cfg.TxnBudget {
			continue
		}
		s.record(Violation{
			Cycle: now, Checker: "liveness", Invariant: "liveness.lost-ifill",
			Addr: m.Addr, Core: p, Bank: s.sys.Cfg.BankOf(m.Addr), Slot: -1, Thread: -1,
			Detail: fmt.Sprintf("L1I %s miss issued at cycle %d still outstanding after %d cycles and not parked at a filter", m.Kind, m.Born, now-m.Born),
		})
	}
}

// checkGlobalStall fires when every running core has gone StallBudget
// cycles without committing an instruction, and classifies each one.
func (s *Sanitizer) checkGlobalStall(now uint64) {
	running := 0
	for i, c := range s.cores {
		if !c.Running() {
			continue
		}
		running++
		if now-s.lastChange[i] < s.cfg.StallBudget {
			return
		}
	}
	if running == 0 {
		return
	}

	var b strings.Builder
	allBlocked := true
	for i, c := range s.cores {
		if !c.Running() {
			continue
		}
		phys := s.physOf[i]
		// Note: no fast-path state (whether a core sleeps) in the dump — the report
		// must be bit-identical with the fast path on or off.
		fmt.Fprintf(&b, "core%d pc=%#x: ", i, c.ResumePC())
		switch {
		case s.describeBlocked(&b, phys):
			// Legitimately parked at a barrier or a lock.
		default:
			allBlocked = false
			if tok, ok := s.sys.OldestInvalToken(phys); ok {
				fmt.Fprintf(&b, "lost — inval token addr=%#x age=%d; ", tok.Addr, now-tok.Born)
			} else if ms := s.sys.L1D[phys].MissSnapshot(); len(ms) > 0 {
				fmt.Fprintf(&b, "lost — waiting on fill addr=%#x age=%d; ", ms[0].Addr, now-ms[0].Born)
			} else if ms := s.sys.L1I[phys].MissSnapshot(); len(ms) > 0 {
				fmt.Fprintf(&b, "lost — waiting on ifill addr=%#x age=%d; ", ms[0].Addr, now-ms[0].Born)
			} else {
				fmt.Fprintf(&b, "lost — no outstanding work; ")
			}
		}
	}
	for bank, h := range s.hooks {
		if h == nil {
			continue
		}
		for slot, p := range h.Hosted() {
			switch x := p.(type) {
			case *filter.Filter:
				if x.ArrivedCount() > 0 {
					fmt.Fprintf(&b, "barrier %q (bank %d slot %d) arrived=%d/%d waiting on threads %v; ",
						x.Name, bank, slot, x.ArrivedCount(), x.NumThreads, x.UnarrivedThreads())
				}
			case *filter.Lock:
				if x.Holder() >= 0 {
					fmt.Fprintf(&b, "lock %q (bank %d slot %d) held by thread %d, wait queue %v; ",
						x.Name, bank, slot, x.Holder(), x.WaitQueue())
				}
			}
		}
	}

	inv := "liveness.global-stall"
	if allBlocked {
		inv = "liveness.barrier-stall"
	}
	s.record(Violation{
		Cycle: now, Checker: "liveness", Invariant: inv,
		Addr: 0, Core: -1, Bank: -1, Slot: -1, Thread: -1,
		Detail: fmt.Sprintf("no core committed an instruction for %d cycles: %s", s.cfg.StallBudget, strings.TrimSuffix(b.String(), "; ")),
	})
}

// describeBlocked writes the blocked-core attribution for a physical core,
// reporting whether it is parked at any hosted primitive.
func (s *Sanitizer) describeBlocked(b *strings.Builder, phys int) bool {
	for bank, h := range s.hooks {
		if h == nil {
			continue
		}
		if slot, p, thread, ok := h.BlockedOn(phys); ok {
			e := p.Table()
			fmt.Fprintf(b, "blocked on %s %q (bank %d slot %d entry %d) — legitimate wait; ", e.Kind.Label, e.Name, bank, slot, thread)
			return true
		}
	}
	return false
}
