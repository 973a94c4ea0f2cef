package vet

import (
	"fmt"

	"repro/internal/isa"
)

// regionRec is one inferred filter-watched region: the affine target of an
// ICBI/DCBI, covering line(target.at(t)) for every thread t.
type regionRec struct {
	target av
	icache bool
}

// protoRes accumulates what one abstract-interpretation sweep discovers.
type protoRes struct {
	report  bool // emit diagnostics (the final sweep)
	diags   []Diagnostic
	regions []regionRec
	roots   []int
	// bounds are instruction indexes whose outgoing edges are phase
	// boundaries: matched barrier stalls, HWBAR, and branches that test a
	// synchronization-tainted register (the spin-exit of every software
	// barrier). phase.go slices the CFG at these edges.
	bounds []int
}

// widenDelay is the number of accepted state changes at one instruction
// before joins switch to the widening operator. Small enough to bound the
// fixpoint tightly, large enough that short constant-bounded loops (the
// ping-pong generation flips, two-iteration unrolls) converge exactly
// without ever widening.
const widenDelay = 4

// maxStateChanges bounds the accepted state changes at one instruction:
// widenDelay exact changes, then each register endpoint pair can move at
// most three more times (lo to -inf, hi to +inf, then Top on a coefficient
// mismatch), plus a handful for the finite dirty/inv/tid/sync lattices.
// The convergence tests assert the fixpoint respects per-instruction and
// whole-program multiples of this.
const maxStateChanges = widenDelay + 3*isa.NumIntRegs + 8

// checkProtocol runs the barrier-protocol and partition-discipline pass.
//
// The filter spec is not passed in: the pass infers the watched regions
// from the program itself (every ICBI/DCBI target), exactly as the
// hardware filter learns them from RegisterAll. Analysis runs in rounds:
// abstract interpretation to a fixpoint, resolving indirect stall-stub
// targets into new CFG roots, repeated until the root set is stable; then
// phase slicing at the discovered barrier-completion edges, one reporting
// sweep over the converged per-instruction states, and the whole-program
// post-passes over the per-edge access records (stores onto filter-watched
// lines, same-phase race checks, phase certificates).
func (u *unit) checkProtocol() []Diagnostic {
	u.hasInval = false
	for _, in := range u.insts {
		if in.IsInval() {
			u.hasInval = true
			break
		}
	}

	states := make([]pstate, len(u.insts))
	for round := 0; ; round++ {
		u.fixpoint(states)
		res := u.sweep(states, false)
		grew := false
		for _, r := range res.roots {
			before := len(u.roots)
			u.addRoot(r)
			grew = grew || len(u.roots) != before
		}
		if !grew || round >= 8 {
			break
		}
	}
	states = u.narrow(states)

	pre := u.sweep(states, false)
	u.computePhases(pre.bounds)

	res := u.sweep(states, true)
	u.regions = nil
	for _, r := range res.regions {
		u.regions = append(u.regions, r.target)
	}

	recs, unbounded := u.collectAccesses(states)
	ds := res.diags
	ds = append(ds, u.checkStoreToArrival(recs, res.regions)...)
	ds = append(ds, u.checkPhaseRaces(recs)...)
	u.phaseInfo = u.certify(recs, unbounded)
	return ds
}

// fixpoint propagates pstate over the CFG from every root until stable,
// with delayed widening: once an instruction's state has changed widenDelay
// times, further joins go through the widening operator, so each register
// endpoint can move only to its infinity and the ascending chain at every
// instruction is bounded by maxStateChanges. It reuses states in place.
func (u *unit) fixpoint(states []pstate) {
	clear(states)
	u.ascend(states, nil)
}

// ascend runs the widened ascending worklist over states in place. extra
// lists already-live instructions whose out-flows should be (re)pushed —
// the narrowing pass uses it to re-grow a reset region from its live
// frontier; a fresh fixpoint passes nil and grows from the roots alone.
func (u *unit) ascend(states []pstate, extra []int) {
	changes := make([]int, len(u.insts))
	var work []int
	seed := func(i int, s pstate) {
		if i < 0 || i >= len(u.insts) {
			return
		}
		var j pstate
		if changes[i] >= widenDelay && !u.opt.AffineOnly {
			j = u.widenState(states[i], s)
			u.stats.widens++
		} else {
			j = u.joinState(states[i], s)
		}
		if !j.equal(states[i]) {
			states[i] = j
			changes[i]++
			if u.stats.narrowing {
				u.stats.nseeds++
			} else {
				u.stats.seeds++
			}
			work = append(work, i)
		}
	}
	seed(u.entryIdx, u.entryState())
	for _, r := range u.roots {
		if r != u.entryIdx {
			seed(r, u.stubState())
		}
	}
	for _, i := range extra {
		if i >= 0 && i < len(u.insts) && states[i].live {
			work = append(work, i)
		}
	}
	for len(work) > 0 {
		i := work[len(work)-1]
		work = work[:len(work)-1]
		if u.stats.narrowing {
			u.stats.nvisits++
		} else {
			u.stats.visits++
		}
		st := states[i]
		in := u.insts[i]
		u.step(&st, i, nil)
		if in.IsCondBranch() {
			if t, ok := in.BranchTarget(u.addrOf(i)); ok {
				if ti, ok := u.idxOf(t); ok {
					seed(ti, refine(st, in, true))
				}
			}
			if i+1 < len(u.insts) {
				seed(i+1, refine(st, in, false))
			}
		} else {
			for _, sc := range u.succs[i] {
				seed(sc, st)
			}
		}
	}
}

// narrowRounds caps the narrow / reset / re-ascend cycles. Each cycle
// recovers one level of widening cascade (an outer loop whose infinity
// poisoned its inner loops' bounds), so the cap is effectively the loop
// nesting depth the analysis fully recovers; deeper nests keep their sound
// widened bounds.
const narrowRounds = 4

// hasInf reports whether any register interval carries a widened endpoint.
func (s pstate) hasInf() bool {
	for _, r := range s.regs {
		if r.known && (infNeg(r.lo) || infPos(r.hi)) {
			return true
		}
	}
	return false
}

// narrow runs the decreasing (narrowing) iteration after the widened
// fixpoint. Widening is eager — one hot loop head burns the whole delay
// budget, so a nested loop's outer index is stuck at +inf even when its
// back-edge refinement is tight, and every inner bound derived from it
// (the skewed kernel's per-row length) inherits the infinity.
//
// The widened fixpoint x satisfies F(x) ⊑ x, so re-applying the transfer
// function only descends (never below the least fixpoint): narrowOnce
// recomputes each infinite instruction's in-state as the exact join over
// its in-edges' refined out-states, requeueing successors of every
// decrease. That alone cannot recover a loop-INVARIANT register widened at
// its loop head — ⊤ is a genuine fixpoint of x = join(preheader, x) — so
// after each decreasing pass, the instructions still carrying an infinity
// are reset to bottom and re-grown with u.ascend from their live frontier:
// inside the now-bounded outer context the invariant never grows, so it
// never widens again, and the next decreasing pass clamps the remaining
// loop counters against it. Each round peels one level of the cascade;
// rounds and per-instruction acceptances are capped, and wherever the
// iteration stops the previous (larger, still sound) state is kept.
func (u *unit) narrow(states []pstate) []pstate {
	if u.opt.AffineOnly || u.stats.widens == 0 {
		return states // nothing widened, nothing to descend from
	}
	u.stats.narrowing = true
	defer func() { u.stats.narrowing = false }()
	changes := make([]int, len(u.insts))
	prevInf := -1
	for round := 0; round < narrowRounds; round++ {
		before := u.stats.narrows
		u.narrowOnce(states, changes)
		var inf []int
		for i := range states {
			if states[i].live && states[i].hasInf() {
				inf = append(inf, i)
			}
		}
		// Reset and re-grow only while it pays: the decreasing pass must
		// have accepted something, and the infinite region must be
		// shrinking round over round — a stable region is a genuine
		// unbounded computation (or a cascade deeper than the cap), and
		// re-growing it would just re-widen the same states.
		if len(inf) == 0 || round == narrowRounds-1 ||
			u.stats.narrows == before || len(inf) == prevInf {
			break
		}
		prevInf = len(inf)
		// Reset the still-infinite region and re-grow it from the live
		// frontier (every live instruction with an edge into the region).
		for _, j := range inf {
			states[j] = pstate{}
		}
		var frontier []int
		for i := range states {
			if !states[i].live {
				continue
			}
			for _, sc := range u.outEdges(i) {
				if sc.idx >= 0 && sc.idx < len(states) && !states[sc.idx].live {
					frontier = append(frontier, i)
					break
				}
			}
		}
		u.ascend(states, frontier)
	}
	return states
}

// outEdge is one CFG out-edge as the fixpoint propagates it: conditional
// branches contribute their refined taken/fall-through states, anything
// else its plain stepped state along u.succs.
type outEdge struct {
	idx    int
	branch bool // refine the stepped state of the source
	taken  bool
}

// outEdges enumerates instruction i's out-edges, mirroring the ascending
// propagation exactly.
func (u *unit) outEdges(i int) []outEdge {
	in := u.insts[i]
	if !in.IsCondBranch() {
		es := make([]outEdge, 0, len(u.succs[i]))
		for _, sc := range u.succs[i] {
			es = append(es, outEdge{idx: sc})
		}
		return es
	}
	var es []outEdge
	if t, ok := in.BranchTarget(u.addrOf(i)); ok {
		if ti, ok := u.idxOf(t); ok {
			es = append(es, outEdge{idx: ti, branch: true, taken: true})
		}
	}
	if i+1 < len(u.insts) {
		es = append(es, outEdge{idx: i + 1, branch: true})
	}
	return es
}

// narrowOnce is one decreasing chaotic iteration: recompute the in-state of
// every instruction carrying an infinity (and, transitively, of every
// successor of a decrease) as the exact join of its in-edge contributions.
func (u *unit) narrowOnce(states []pstate, changes []int) {
	n := len(u.insts)
	type inEdge struct {
		pred int
		e    outEdge
	}
	preds := make([][]inEdge, n)
	for i := 0; i < n; i++ {
		if !states[i].live {
			continue
		}
		for _, e := range u.outEdges(i) {
			if e.idx >= 0 && e.idx < n {
				preds[e.idx] = append(preds[e.idx], inEdge{pred: i, e: e})
			}
		}
	}
	rootState := map[int]pstate{u.entryIdx: u.entryState()}
	for _, r := range u.roots {
		if r != u.entryIdx {
			rootState[r] = u.stubState()
		}
	}
	inflow := func(j int) pstate {
		s := rootState[j]
		for _, p := range preds[j] {
			st := states[p.pred]
			u.step(&st, p.pred, nil)
			if p.e.branch {
				st = refine(st, u.insts[p.pred], p.e.taken)
			}
			s = u.joinState(s, st)
		}
		return s
	}
	inWork := make([]bool, n)
	var work []int
	enqueue := func(j int) {
		if j >= 0 && j < n && !inWork[j] && states[j].live {
			work = append(work, j)
			inWork[j] = true
		}
	}
	for i := 0; i < n; i++ {
		if states[i].live && states[i].hasInf() {
			enqueue(i)
		}
	}
	for len(work) > 0 {
		j := work[len(work)-1]
		work = work[:len(work)-1]
		inWork[j] = false
		u.stats.nvisits++
		if changes[j] >= maxStateChanges {
			continue
		}
		ns := inflow(j)
		if ns.equal(states[j]) {
			continue
		}
		states[j] = ns
		changes[j]++
		u.stats.narrows++
		for _, e := range u.outEdges(j) {
			enqueue(e.idx)
		}
	}
}

// sweep applies step (with collection, and reporting when report is set) to
// the converged entry state of every reachable instruction.
func (u *unit) sweep(states []pstate, report bool) protoRes {
	res := protoRes{}
	res.report = report
	for i := range u.insts {
		if !u.reachable[i] || !states[i].live {
			continue
		}
		st := states[i]
		u.step(&st, i, &res)
	}
	return res
}

// exactTarget reports an av usable by the exact per-thread evaluators
// (at(t)): a single known finite base point.
func exactTarget(a av) bool { return a.known && a.exact() }

// step applies instruction i to the state: protocol checks against the
// entry state (collected into res when non-nil), then the state effects
// (dirty/invalidation bookkeeping and the register transfer).
func (u *unit) step(st *pstate, i int, res *protoRes) {
	in := u.insts[i]
	switch {
	case in.Op == isa.FENCE:
		st.dirty = false
	case in.Op == isa.IFLUSH:
		if st.inv.kind == invSome {
			st.inv.flushed = true
		}
	case in.Op == isa.HWBAR:
		// A hardware barrier is a global completion point by construction.
		if res != nil {
			res.bounds = append(res.bounds, i)
			if res.report && st.lock.kind == lockHeld {
				res.diags = append(res.diags, u.diag(CodeMissingRelease, i,
					"barrier while holding the hardware lock on line %s: waiters parked on the lock can never arrive",
					u.describeAV(st.lock.target)))
			}
		}
	case in.Op == isa.HALT:
		if res != nil && res.report && st.lock.kind == lockHeld {
			res.diags = append(res.diags, u.diag(CodeMissingRelease, i,
				"path reaches halt still holding the hardware lock on line %s",
				u.describeAV(st.lock.target)))
		}
	case in.IsInval():
		tgt := avAdd(st.regs[in.Rs1&31], avCon(int64(in.Imm)))
		if res != nil {
			if res.report && st.dirty {
				res.diags = append(res.diags, u.diag(CodeMissingFence, i,
					"%s executes while stores issued since the last fence may still be pending", in))
			}
			if exactTarget(tgt) {
				res.regions = append(res.regions, regionRec{target: tgt, icache: in.Op == isa.ICBI})
			}
		}
		if st.lock.kind == lockHeld && st.lock.target == tgt {
			// Invalidating the line this path holds is the release: the
			// bank's lock table hands the lock to the next waiter. It
			// leaves no pending invalidation to stall on.
			st.lock = lockSt{}
			st.inv = invState{}
		} else {
			st.inv = invState{kind: invSome, target: tgt, idx: i, icache: in.Op == isa.ICBI}
		}
	case in.IsLoad():
		addr := avAdd(st.regs[in.Rs1&31], avCon(int64(in.Imm)))
		if u.hasInval {
			u.checkStall(st, i, addr, false, res)
		}
		u.xfer(st, i, in)
		// A load from the synchronization region taints its destination:
		// branches on such registers are barrier-completion candidates.
		if u.inBarrierRegion(addr, st.tid) {
			if rd, ok := in.DefInt(); ok {
				st.sync |= 1 << rd
			}
		}
		return
	case in.IsCondBranch():
		if res != nil && ((st.sync>>(in.Rs1&31))&1 == 1 || (st.sync>>(in.Rs2&31))&1 == 1) {
			res.bounds = append(res.bounds, i)
			if res.report && st.lock.kind == lockHeld {
				res.diags = append(res.diags, u.diag(CodeMissingRelease, i,
					"barrier spin-exit while holding the hardware lock on line %s: waiters parked on the lock can never arrive",
					u.describeAV(st.lock.target)))
			}
		}
	case in.IsStore():
		st.dirty = true
		// An exact store into the barrier region is a barrier-state write
		// — the counter reset or release-flag store of a software
		// barrier. The release store is a completion point on the
		// releaser's path (every thread's arrival is ordered before it by
		// the LL/SC chain, every waiter's exit after it by the spin), the
		// waiters' own completion point being their sync-tainted
		// spin-exit branch; without this bound the releaser's unsliced
		// path would merge the phases the spin exits split. Arrival-slot
		// stores (array barriers) over-slice the arriving thread's path,
		// like a combining tree's inner rounds — see the caveat in
		// phase.go; hbcheck backstops. Bounded (not just exact) targets
		// qualify: a tree node's address is an interval in the per-round
		// node array, still provably barrier state.
		addr := avAdd(st.regs[in.Rs1&31], avCon(int64(in.Imm)))
		if res != nil && u.inBarrierRegion(addr, st.tid) {
			res.bounds = append(res.bounds, i)
		}
	case in.Op == isa.JALR && in.Rd == isa.RegRA:
		tgt := avAdd(st.regs[in.Rs1&31], avCon(int64(in.Imm)))
		if res != nil && exactTarget(tgt) {
			for t := int64(0); t < int64(u.opt.Threads); t++ {
				if !st.tid.allows(t) {
					continue
				}
				if ti, ok := u.idxOf(uint64(tgt.at(t))); ok {
					res.roots = append(res.roots, ti)
				}
			}
		}
		u.checkStall(st, i, tgt, true, res)
	}
	u.xfer(st, i, in)
}

// checkStall handles a potential barrier-stall operation: a load (D-filter)
// or an indirect linked jump (I-filter) reached with invalidation state st.inv.
func (u *unit) checkStall(st *pstate, i int, addr av, isJump bool, res *protoRes) {
	line := int64(u.opt.LineBytes)
	report := res != nil && res.report
	switch st.inv.kind {
	case invSome:
		tgt := st.inv.target
		if !exactTarget(tgt) || !exactTarget(addr) {
			// Widened (e.g. the ping-pong register rotation across loop
			// iterations): nothing provable; treat as the stall. A jump is
			// still a phase boundary — the only widened stall jumps in
			// practice are the ping-pong rotations, and missing a boundary
			// is safe anyway (fewer certificates, never fewer checks).
			if res != nil && isJump {
				res.bounds = append(res.bounds, i)
			}
			st.inv = invState{}
			return
		}
		matched, feasible := false, false
		for t := int64(0); t < int64(u.opt.Threads); t++ {
			if !st.tid.allows(t) {
				continue
			}
			feasible = true
			if floorDiv(tgt.at(t), line) == floorDiv(addr.at(t), line) {
				matched = true
			}
		}
		if !feasible {
			st.inv = invState{}
			return
		}
		if !matched {
			// Provably a different line for every thread that can get
			// here. Only a stall-shaped operation counts: a jump, or a
			// load aimed at the synchronization region (barrier or lock).
			if !isJump && !u.inBarrierRegion(addr, st.tid) && !u.inLockRegion(addr, st.tid) {
				return // ordinary data load; leave the invalidation pending
			}
			if report {
				res.diags = append(res.diags, u.diag(CodeWrongSlotInval, st.inv.idx,
					"invalidated line of %s but the stall at %s targets %s — another slot's line",
					u.describeAV(tgt), u.p.Locate(u.addrOf(i)), u.describeAV(addr)))
			}
			st.inv = invState{}
			return
		}
		if !isJump && u.inLockRegion(addr, st.tid) {
			// A matched stall on this thread's own lock line is the
			// acquire's grant load: it orders the thread after the
			// previous holder — a mutual-exclusion edge, not a global
			// completion point — so it is NOT a phase boundary.
			st.lock = lockSt{kind: lockHeld, target: addr}
			st.inv = invState{}
			return
		}
		// A matched stall: the thread blocks here until the filter opens,
		// i.e. until every thread has arrived — a phase boundary.
		if res != nil {
			res.bounds = append(res.bounds, i)
		}
		if report && st.lock.kind == lockHeld {
			res.diags = append(res.diags, u.diag(CodeMissingRelease, i,
				"barrier stall while holding the hardware lock on line %s: waiters parked on the lock can never arrive",
				u.describeAV(st.lock.target)))
		}
		if report && tgt.coef == 0 && addr.coef == 0 && u.opt.Threads > 1 && u.countAllowed(st.tid) > 1 {
			res.diags = append(res.diags, u.diag(CodeWrongSlotInval, st.inv.idx,
				"every thread invalidates and stalls on the one shared line %#x; arrival slots must be per-thread",
				uint64(tgt.base())))
		}
		if report && isJump && st.inv.icache && !st.inv.flushed {
			res.diags = append(res.diags, u.diag(CodeMissingIFlush, i,
				"stall jump after an icbi without an iflush: prefetched stub instructions can run through the barrier"))
		}
		st.inv = invState{}
	case invNone:
		if !isJump && exactTarget(addr) {
			switch {
			case u.inLockRegion(addr, st.tid):
				if report && st.lock.kind == lockNone {
					res.diags = append(res.diags, u.diag(CodeLoadBeforeAcquire, i,
						"load from lock line %s without invalidating it first: acquire is dcbi-then-ld, and the bank's lock table faults demand loads from threads that never queued",
						u.describeAV(addr)))
				}
			case u.inBarrierRegion(addr, st.tid):
				if report {
					res.diags = append(res.diags, u.diag(CodeLoadBeforeInval, i,
						"load from barrier line %s without invalidating it first: the load cannot be starved, so the thread runs through the barrier",
						u.describeAV(addr)))
				}
			}
		}
	case invMany:
		// Paths disagree about the pending invalidation; stay silent.
	}
}

// inBarrierRegion reports whether the address provably lies in the barrier
// data region for every thread the constraint allows: the interval's lower
// bound clears BarrierBase and its upper bound stays below LockBase, where
// the hardware-lock lines (a different protocol) begin.
func (u *unit) inBarrierRegion(a av, c tidC) bool {
	if !a.known {
		return false
	}
	any := false
	for t := int64(0); t < int64(u.opt.Threads); t++ {
		if !c.allows(t) {
			continue
		}
		any = true
		if v := a.loAt(t); v < 0 || uint64(v) < u.opt.BarrierBase {
			return false
		}
		if v := a.hiAt(t); uint64(v) >= u.opt.LockBase {
			return false
		}
	}
	return any
}

// inLockRegion reports whether the address provably lies in the
// hardware-lock line region for every thread the constraint allows.
func (u *unit) inLockRegion(a av, c tidC) bool {
	if !a.known {
		return false
	}
	any := false
	for t := int64(0); t < int64(u.opt.Threads); t++ {
		if !c.allows(t) {
			continue
		}
		any = true
		if v := a.loAt(t); v < 0 || uint64(v) < u.opt.LockBase {
			return false
		}
	}
	return any
}

// countAllowed counts the threads a constraint admits.
func (u *unit) countAllowed(c tidC) int {
	n := 0
	for t := int64(0); t < int64(u.opt.Threads); t++ {
		if c.allows(t) {
			n++
		}
	}
	return n
}

func (u *unit) describeAV(a av) string {
	if !a.known {
		return "<unknown>"
	}
	end := func(v int64) string {
		switch {
		case infNeg(v):
			return "-inf"
		case infPos(v):
			return "+inf"
		}
		return fmt.Sprintf("%#x", uint64(v))
	}
	base := end(a.lo)
	if a.lo != a.hi {
		base = fmt.Sprintf("[%s..%s]", end(a.lo), end(a.hi))
	}
	if a.coef == 0 {
		return base
	}
	return fmt.Sprintf("%s+tid*%d", base, a.coef)
}

// checkStoreToArrival reports stores whose footprint lands on a
// filter-watched line (any thread's arrival or exit slot).
func (u *unit) checkStoreToArrival(recs []accRec, regions []regionRec) []Diagnostic {
	var ds []Diagnostic
	line := int64(u.opt.LineBytes)
	for _, s := range recs {
		if !s.store || !s.addr.exact() {
			continue
		}
		hit := false
		for _, r := range regions {
			for t := int64(0); t < int64(u.opt.Threads) && !hit; t++ {
				if !s.tid.allows(t) {
					continue
				}
				a := s.addr.at(t)
				lo, hiL := floorDiv(a, line), floorDiv(a+int64(s.width)-1, line)
				for L := lo; L <= hiL && !hit; L++ {
					if regionCoversLine(r.target, L, line, int64(u.opt.Threads)) {
						ds = append(ds, u.diag(CodeStoreToArrival, s.idx,
							"store to %#x lands on filter-watched line %#x; stores corrupt the filter's starvation protocol",
							uint64(a), uint64(L*line)))
						hit = true
					}
				}
			}
			if hit {
				break
			}
		}
	}
	return ds
}

// regionCoversLine reports whether some thread u in [0, T) has
// line(r.at(u)) == L.
func regionCoversLine(r av, L, line, T int64) bool {
	if r.coef == 0 {
		return floorDiv(r.base(), line) == L
	}
	u0 := (L*line - r.base()) / r.coef
	for d := int64(-2); d <= 2; d++ {
		t := u0 + d
		if t >= 0 && t < T && floorDiv(r.base()+r.coef*t, line) == L {
			return true
		}
	}
	return false
}

// floorDiv divides rounding toward negative infinity (addresses are
// non-negative in practice; this keeps line math total).
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}
