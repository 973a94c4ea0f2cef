package sanitize

import (
	"fmt"
	"sort"

	"repro/internal/filter"
	"repro/internal/mem"
)

// checkCoherence walks every line currently valid in any L1 and applies the
// per-line MSI and directory-inclusion checks. Lines are visited in address
// order so reports are deterministic.
func (s *Sanitizer) checkCoherence(now uint64) {
	seen := make(map[uint64]bool)
	var addrs []uint64
	note := func(lines []mem.CacheLine) {
		for _, ln := range lines {
			if !seen[ln.Addr] {
				seen[ln.Addr] = true
				addrs = append(addrs, ln.Addr)
			}
		}
	}
	for c := 0; c < s.sys.Cfg.Cores; c++ {
		note(s.sys.L1D[c].Snapshot())
		note(s.sys.L1I[c].Snapshot())
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, la := range addrs {
		if s.full() {
			return
		}
		s.checkLine(now, la)
	}
}

// checkLine applies the MSI and inclusion invariants to one line:
//
//   - at most one L1D holds the line Modified, and a Modified copy excludes
//     every other valid D copy;
//   - a Modified copy's core is the directory's recorded owner;
//   - every valid L1 copy is covered by its bank's directory sharer set
//     (the inclusion property the non-inclusive L2 maintains: the directory,
//     not the L2 array, must cover the L1s — see DESIGN.md §8).
func (s *Sanitizer) checkLine(now uint64, la uint64) {
	bank := s.sys.Cfg.BankOf(la)
	dir, _ := s.sys.Banks[bank].DirLookup(la)

	owners := []int{}
	valid := []int{}
	for c := 0; c < s.sys.Cfg.Cores; c++ {
		switch s.sys.L1D[c].Peek(la) {
		case mem.Modified:
			owners = append(owners, c)
			valid = append(valid, c)
		case mem.Shared:
			valid = append(valid, c)
		}
	}

	if len(owners) >= 2 {
		s.record(Violation{
			Cycle: now, Checker: "msi", Invariant: "msi.double-modified",
			Addr: la, Core: owners[0], Bank: bank, Slot: -1, Thread: -1,
			Detail: fmt.Sprintf("line Modified in L1Ds of cores %v; dir owner=%d dSharers=%s", owners, dir.Owner, dir.DSharers),
		})
	}
	if len(owners) == 1 && len(valid) > 1 {
		s.record(Violation{
			Cycle: now, Checker: "msi", Invariant: "msi.modified-shared",
			Addr: la, Core: owners[0], Bank: bank, Slot: -1, Thread: -1,
			Detail: fmt.Sprintf("core %d holds line Modified while cores %v hold valid copies; dir owner=%d dSharers=%s", owners[0], valid, dir.Owner, dir.DSharers),
		})
	}
	if len(owners) == 1 && dir.Owner != owners[0] {
		s.record(Violation{
			Cycle: now, Checker: "msi", Invariant: "msi.phantom-modified",
			Addr: la, Core: owners[0], Bank: bank, Slot: -1, Thread: -1,
			Detail: fmt.Sprintf("core %d holds line Modified but dir owner=%d dSharers=%s (soft error or lost invalidation)", owners[0], dir.Owner, dir.DSharers),
		})
	}

	for c := 0; c < s.sys.Cfg.Cores; c++ {
		if s.sys.L1D[c].Peek(la) != mem.Invalid && !dir.DSharers.Has(c) {
			s.record(Violation{
				Cycle: now, Checker: "inclusion", Invariant: "inclusion.uncovered-dline",
				Addr: la, Core: c, Bank: bank, Slot: -1, Thread: -1,
				Detail: fmt.Sprintf("valid L1D line not covered by directory (owner=%d dSharers=%s iSharers=%s l2=%s)", dir.Owner, dir.DSharers, dir.ISharers, s.sys.Banks[bank].L2Peek(la)),
			})
		}
		if s.sys.L1I[c].Peek(la) != mem.Invalid && !dir.ISharers.Has(c) {
			s.record(Violation{
				Cycle: now, Checker: "inclusion", Invariant: "inclusion.uncovered-iline",
				Addr: la, Core: c, Bank: bank, Slot: -1, Thread: -1,
				Detail: fmt.Sprintf("valid L1I line not covered by directory (dSharers=%s iSharers=%s l2=%s)", dir.DSharers, dir.ISharers, s.sys.Banks[bank].L2Peek(la)),
			})
		}
	}
}

// checkFilters applies the sync-engine table invariants to every bank.
func (s *Sanitizer) checkFilters(now uint64) {
	for b := range s.hooks {
		if s.full() {
			return
		}
		s.checkBankFilters(now, b)
	}
}

// checkBankFilters checks the sync-engine table one bank hosts. For every
// primitive, whatever its kind:
//
//   - occupancy never exceeds the bank's entry capacity;
//   - no two live primitives claim the same filtered line — ambiguous
//     ownership would route fills nondeterministically. (A barrier's arrival
//     line aliasing its ping-pong twin's exit line is legal: exit lines are
//     not filtered.) The later-installed primitive is reported: its
//     allocation created the overlap;
//   - parked fills are legal for the entry's state (checkParked);
//
// then the invariants of the kind's grant rule.
func (s *Sanitizer) checkBankFilters(now uint64, b int) {
	if b < 0 || b >= len(s.hooks) || s.hooks[b] == nil {
		return
	}
	h := s.hooks[b]
	if h.Cap > 0 && h.Entries() > h.Cap {
		s.record(Violation{
			Cycle: now, Checker: "filter", Invariant: "filter.capacity-exceeded",
			Addr: 0, Core: -1, Bank: b, Slot: -1, Thread: -1,
			Detail: fmt.Sprintf("bank holds %d table entries over its capacity %d (an allocation bypassed the spill path)", h.Entries(), h.Cap),
		})
	}
	live := h.Hosted()
	for slot, p := range live {
		e := p.Table()
		for _, q := range live[:slot] {
			g := q.Table()
			for t := 0; t < e.NumThreads; t++ {
				if gt, ok := g.MatchLine(e.LineAddr(t)); ok {
					s.record(Violation{
						Cycle: now, Checker: e.Kind.Noun, Invariant: e.Kind.Noun + ".tag-overlap",
						Addr: e.LineAddr(t), Core: -1, Bank: b, Slot: slot, Thread: t,
						Detail: fmt.Sprintf("%s %q (thread %d) and %s %q (thread %d) both claim the line", e.Kind.Label, e.Name, t, g.Kind.Label, g.Name, gt),
					})
					break
				}
			}
		}
		s.checkParked(now, b, slot, e)
		switch x := p.(type) {
		case *filter.Filter:
			s.checkBarrierRule(now, b, slot, x)
		case *filter.Lock:
			s.checkLockRule(now, b, slot, x)
		}
	}
}

// checkParked checks the fills one entry table withholds against the shared
// entry automaton: only a signalled, not yet granted thread parks demand
// fills. A granted (open) entry's fills are serviced at once and the grant
// released what was parked, so a released slot must not still be blocking a
// core; an idle entry may hold only speculative fills (prefetch, wrong-path
// ifetch); an Evicted entry must have error-released everything.
func (s *Sanitizer) checkParked(now uint64, b, slot int, e *filter.EntryTable) {
	noun, label := e.Kind.Noun, e.Kind.Label
	for _, p := range e.ParkedDump() {
		v := Violation{
			Cycle: now, Checker: noun,
			Addr: p.Txn.Addr, Core: p.Txn.Core, Bank: b, Slot: slot, Thread: p.Thread,
		}
		switch e.Entry(p.Thread) {
		case filter.EntryOpen:
			v.Invariant = noun + ".parked-after-grant"
			v.Detail = fmt.Sprintf("%s %q thread entry %d is %s (granted) but still withholds a fill parked at cycle %d — a grant must release parked fills", label, e.Name, p.Thread, e.StateName(p.Thread), p.ParkedAt)
		case filter.EntryIdle:
			if p.Txn.Prefetch || p.Txn.Kind == mem.GetI {
				continue
			}
			v.Invariant = noun + ".parked-unsignalled"
			v.Detail = fmt.Sprintf("%s %q withholds a demand fill (%s) for a thread that is %s: it never signalled", label, e.Name, p.Txn.Kind, e.StateName(p.Thread))
		case filter.EntryEvicted:
			v.Invariant = noun + ".parked-evicted"
			v.Detail = fmt.Sprintf("%s %q withholds a fill for a deallocated (Evicted) entry — eviction must error-release parked fills", label, e.Name)
		default:
			continue
		}
		s.record(v)
	}
}

// checkBarrierRule checks a barrier's grant rule: the arrived-counter equals
// the number of registered threads in the Blocking state and never reaches
// the participant count (the opening resets it).
func (s *Sanitizer) checkBarrierRule(now uint64, b, slot int, f *filter.Filter) {
	blocking, registered := 0, 0
	for t := 0; t < f.NumThreads; t++ {
		if !f.Registered(t) {
			continue
		}
		registered++
		if f.State(t) == filter.Blocking {
			blocking++
		}
	}
	arrived := f.ArrivedCount()
	if arrived != blocking {
		s.record(Violation{
			Cycle: now, Checker: "filter", Invariant: "filter.arrived-count-mismatch",
			Addr: f.Base, Core: -1, Bank: b, Slot: slot, Thread: -1,
			Detail: fmt.Sprintf("barrier %q arrived-counter=%d but %d of %d registered threads are Blocking", f.Name, arrived, blocking, registered),
		})
	}
	if arrived >= f.NumThreads {
		s.record(Violation{
			Cycle: now, Checker: "filter", Invariant: "filter.arrived-overflow",
			Addr: f.Base, Core: -1, Bank: b, Slot: slot, Thread: -1,
			Detail: fmt.Sprintf("barrier %q arrived-counter=%d >= %d participants (opening must have reset it)", f.Name, arrived, f.NumThreads),
		})
	}
}

// checkLockRule checks a lock's grant rule:
//
//   - at most one thread is Holding, and the holder register names exactly
//     that thread (a holder register pointing elsewhere means a soft error
//     or a lost release corrupted the grant path);
//   - every Pending thread sits in the FIFO wait queue — Pending is only
//     entered by the acquire invalidation that enqueues it (the queue may
//     hold stale entries for evicted threads; those are dropped lazily at
//     grant and are not a violation);
//   - a free lock has no Pending thread: every transition that frees the
//     lock (release, holder eviction) immediately grants the oldest waiter,
//     so free-with-waiters means a grant was lost.
func (s *Sanitizer) checkLockRule(now uint64, b, slot int, l *filter.Lock) {
	holder := l.Holder()
	waitq := l.WaitQueue()
	queued := make(map[int]bool, len(waitq))
	for _, t := range waitq {
		queued[t] = true
	}
	holding, pending := []int{}, 0
	for t := 0; t < l.NumThreads; t++ {
		switch l.State(t) {
		case filter.LockHolding:
			holding = append(holding, t)
		case filter.LockPending:
			pending++
			if !queued[t] {
				s.record(Violation{
					Cycle: now, Checker: "lock", Invariant: "lock.pending-not-queued",
					Addr: l.LineAddr(t), Core: -1, Bank: b, Slot: slot, Thread: t,
					Detail: fmt.Sprintf("lock %q thread %d is Pending but missing from the wait queue %v — a grant can never reach it", l.Name, t, waitq),
				})
			}
		}
	}
	if len(holding) >= 2 {
		s.record(Violation{
			Cycle: now, Checker: "lock", Invariant: "lock.multiple-holders",
			Addr: l.Base, Core: -1, Bank: b, Slot: slot, Thread: holding[0],
			Detail: fmt.Sprintf("lock %q held by threads %v simultaneously (holder register=%d) — mutual exclusion is broken", l.Name, holding, holder),
		})
	}
	if len(holding) == 1 && holder != holding[0] {
		s.record(Violation{
			Cycle: now, Checker: "lock", Invariant: "lock.phantom-holder",
			Addr: l.Base, Core: -1, Bank: b, Slot: slot, Thread: holding[0],
			Detail: fmt.Sprintf("lock %q thread %d is Holding but the holder register says %d", l.Name, holding[0], holder),
		})
	}
	if len(holding) == 0 && holder >= 0 {
		s.record(Violation{
			Cycle: now, Checker: "lock", Invariant: "lock.phantom-holder",
			Addr: l.Base, Core: -1, Bank: b, Slot: slot, Thread: holder,
			Detail: fmt.Sprintf("lock %q holder register says thread %d but no thread is Holding", l.Name, holder),
		})
	}
	if holder < 0 && pending > 0 {
		s.record(Violation{
			Cycle: now, Checker: "lock", Invariant: "lock.free-with-waiters",
			Addr: l.Base, Core: -1, Bank: b, Slot: slot, Thread: -1,
			Detail: fmt.Sprintf("lock %q is free but %d threads are Pending — freeing the lock must grant the oldest waiter", l.Name, pending),
		})
	}
}
