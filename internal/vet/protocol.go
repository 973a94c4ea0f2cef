package vet

import (
	"fmt"
	"slices"

	"repro/internal/core"
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

// widenDelay is the number of accepted state changes at one block head
// before joins switch to the widening operator. Small enough to bound the
// fixpoint tightly, large enough that short constant-bounded loops (the
// ping-pong generation flips, two-iteration unrolls) converge exactly
// without ever widening.
const widenDelay = 4

// maxStateChanges bounds the accepted state changes at one block head:
// widenDelay exact changes, then each register endpoint pair can move at
// most three more times (lo to -inf, hi to +inf, then Top on a coefficient
// mismatch), plus a handful for the finite dirty/inv/tid/sync lattices.
// The convergence tests assert the fixpoint respects per-head and
// whole-program multiples of this.
const maxStateChanges = widenDelay + 3*isa.NumIntRegs + 8

// checkProtocol runs the barrier-protocol and partition-discipline pass.
//
// The filter spec is not passed in: the pass infers the watched regions
// from the program itself (every ICBI/DCBI target), exactly as the
// hardware filter learns them from RegisterAll. Analysis runs in rounds:
// basic blocks over the reachable CFG, abstract interpretation to a
// fixpoint over their head states, resolving indirect stall-stub targets
// into new CFG roots, repeated until the root set is stable; then phase
// slicing at the discovered barrier-completion edges, one reporting sweep
// that re-steps every block from its converged head state, and the
// whole-program post-passes over the per-edge access records (stores onto
// filter-watched lines, same-phase race checks, phase certificates).
func (u *unit) checkProtocol() []Diagnostic {
	var states []pstate
	for round := 0; ; round++ {
		u.buildBlocks()
		states = u.fixpoint(states)
		if round > 8 {
			break
		}
		grew := false
		for _, r := range u.sweep(states, false).roots {
			grew = u.addRoot(r) || grew
		}
		if !grew {
			break
		}
	}
	u.narrow(states)

	pre := u.sweep(states, false)
	u.computePhases(pre.bounds)
	u.regions = pre.regions

	res := u.sweep(states, true)
	recs, unbounded := u.collectAccesses(states)
	ds := res.diags
	ds = append(ds, u.checkStoreToArrival(recs, u.regions)...)
	ds = append(ds, u.checkPhaseRaces(recs)...)
	u.phaseInfo = u.certify(recs, unbounded)
	return ds
}

// fixpoint propagates pstate over the CFG from every root until stable,
// keeping one state per block head (states is indexed by block id, reused
// and resized). Every other instruction's state is its head's stepped
// forward, recomputed where needed. Widening is delayed: once a head's
// state has changed widenDelay times, further joins there go through the
// widening operator. Every CFG cycle passes through a head, so each
// register endpoint can move only to its infinity and the ascending chain
// at every head is bounded by maxStateChanges.
func (u *unit) fixpoint(states []pstate) []pstate {
	states = slices.Grow(states[:0], len(u.blocks))[:len(u.blocks)]
	clear(states)
	u.ascend(states, nil)
	return states
}

// ascend runs the widened ascending worklist over states in place. extra
// lists already-live blocks whose out-flows should be (re)pushed — the
// narrowing pass uses it to re-grow a reset region from its live frontier;
// a fresh fixpoint passes nil and grows from the roots alone.
func (u *unit) ascend(states []pstate, extra []int) {
	changes := make([]int, len(u.blocks))
	var work []int
	seed := func(i int, s pstate) {
		b := u.bid[i]
		if b < 0 {
			return // an edge inside a block
		}
		var j pstate
		if changes[b] >= widenDelay && !u.opt.AffineOnly {
			j = u.widenState(states[b], s)
			u.stats.widens++
		} else {
			j = u.joinState(states[b], s)
		}
		if !j.equal(states[b]) {
			states[b] = j
			changes[b]++
			if u.stats.narrowing {
				u.stats.nseeds++
			} else {
				u.stats.seeds++
			}
			work = append(work, int(b))
		}
	}
	entry := u.entryState()
	for _, r := range u.roots {
		seed(r, entry)
	}
	for _, b := range extra {
		if states[b].live {
			work = append(work, b)
		}
	}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		if u.stats.narrowing {
			u.stats.nvisits++
		} else {
			u.stats.visits++
		}
		u.flow(b, states[b], nil, seed)
	}
}

// flow steps block b from in-state st (collecting into res when non-nil)
// and, when edge is non-nil, calls it with every CFG edge out of each
// instruction and the state the edge carries: the stepped state, refined
// on a conditional branch's two edges. Edges inside the block lead to
// non-head instructions. States pass by value: a pointer handed to edge
// would move st to the heap on every call.
func (u *unit) flow(b int, st pstate, res *protoRes, edge func(j int, s pstate)) {
	blk := u.blocks[b]
	for i := blk.head; i < blk.end; i++ {
		u.step(&st, i, res)
		if edge != nil {
			edge(i+1, st)
		}
	}
	i, in := blk.end, u.insts[blk.end]
	u.step(&st, i, res)
	switch {
	case edge == nil:
	case in.IsCondBranch():
		if t, ok := in.BranchTarget(u.addrOf(i)); ok {
			if ti, ok := u.idxOf(t); ok {
				edge(ti, refine(st, in, true))
			}
		}
		if i+1 < len(u.insts) {
			edge(i+1, refine(st, in, false))
		}
	default:
		for _, sc := range u.succs[i] {
			edge(sc, st)
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
// recomputes each infinite head's in-state as the exact join over its
// in-edges' refined out-states, requeueing successors of every decrease.
// That alone cannot recover a loop-INVARIANT register widened at its loop
// head — ⊤ is a genuine fixpoint of x = join(preheader, x) — so after each
// decreasing pass, the heads still carrying an infinity are reset to
// bottom and re-grown with u.ascend from their live frontier: inside the
// now-bounded outer context the invariant never grows, so it never widens
// again, and the next decreasing pass clamps the remaining loop counters
// against it. Each round peels one level of the cascade; rounds and
// per-head acceptances are capped, and wherever the iteration stops the
// previous (larger, still sound) state is kept.
func (u *unit) narrow(states []pstate) {
	if u.opt.AffineOnly || u.stats.widens == 0 {
		return // nothing widened, nothing to descend from
	}
	u.stats.narrowing = true
	defer func() { u.stats.narrowing = false }()
	changes := make([]int, len(u.blocks))
	prevInf := -1
	for round := 0; round < narrowRounds; round++ {
		before := u.stats.narrows
		u.narrowOnce(states, changes)
		var inf []int
		for b := range states {
			if states[b].live && states[b].hasInf() {
				inf = append(inf, b)
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
		// frontier (every live block with an edge into the region).
		for _, b := range inf {
			states[b] = pstate{}
		}
		var frontier []int
		for b := range states {
			if !states[b].live {
				continue
			}
			for _, sc := range u.succs[u.blocks[b].end] {
				if !states[u.bid[sc]].live {
					frontier = append(frontier, b)
					break
				}
			}
		}
		u.ascend(states, frontier)
	}
}

// narrowOnce is one decreasing chaotic iteration: recompute the in-state of
// every head carrying an infinity (and, transitively, of every successor
// of a decrease) as the exact join of the entry state, when the head is a
// root, and its in-edge contributions.
func (u *unit) narrowOnce(states []pstate, changes []int) {
	n := len(u.blocks)
	preds := make([][]int, n) // live predecessor blocks, each listed once
	for p := range u.blocks {
		if !states[p].live {
			continue
		}
		for _, sc := range u.succs[u.blocks[p].end] {
			if q := u.bid[sc]; len(preds[q]) == 0 || preds[q][len(preds[q])-1] != p {
				preds[q] = append(preds[q], p)
			}
		}
	}
	entry := u.entryState()
	inflow := func(j int) pstate {
		var s pstate
		if u.blocks[j].root {
			s = entry
		}
		for _, p := range preds[j] {
			u.flow(p, states[p], nil, func(k int, e pstate) {
				if k == u.blocks[j].head {
					s = u.joinState(s, e)
				}
			})
		}
		return s
	}
	inWork := make([]bool, n)
	var work []int
	enqueue := func(j int) {
		if !inWork[j] && states[j].live {
			work = append(work, j)
			inWork[j] = true
		}
	}
	for b := range states {
		if states[b].live && states[b].hasInf() {
			enqueue(b)
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
		for _, sc := range u.succs[u.blocks[j].end] {
			enqueue(int(u.bid[sc]))
		}
	}
}

// sweep re-steps every live block from its converged head state, applying
// step with collection (and reporting when report is set).
func (u *unit) sweep(states []pstate, report bool) protoRes {
	res := protoRes{report: report}
	for b := range u.blocks {
		if states[b].live {
			u.flow(b, states[b], &res, nil)
		}
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
		u.checkStall(st, i, addr, false, res)
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
	line := int64(lineBytes)
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
		if !report || isJump || !exactTarget(addr) {
			return
		}
		switch {
		case u.inLockRegion(addr, st.tid):
			if st.lock.kind == lockNone {
				res.diags = append(res.diags, u.diag(CodeLoadBeforeAcquire, i,
					"load from lock line %s without invalidating it first: acquire is dcbi-then-ld, and the bank's lock table faults demand loads from threads that never queued",
					u.describeAV(addr)))
			}
		case u.inBarrierRegion(addr, st.tid) && u.watched(addr, st.tid):
			// Only a filter-watched line is a stall target: a software
			// barrier's counter and flag loads are ordinary spins.
			res.diags = append(res.diags, u.diag(CodeLoadBeforeInval, i,
				"load from barrier line %s without invalidating it first: the load cannot be starved, so the thread runs through the barrier",
				u.describeAV(addr)))
		}
	case invMany:
		// Paths disagree about the pending invalidation; stay silent.
	}
}

// inBarrierRegion reports whether the address provably lies in the barrier
// data region for every thread the constraint allows: the interval's lower
// bound clears core.BarrierRegion and its upper bound stays below
// core.LockRegion, where
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
		if v := a.loAt(t); v < 0 || uint64(v) < core.BarrierRegion {
			return false
		}
		if v := a.hiAt(t); uint64(v) >= core.LockRegion {
			return false
		}
	}
	return any
}

// watched reports whether the exact address lies, for some thread the
// constraint allows, on a line an inferred filter region (u.regions, an
// ICBI/DCBI target) covers.
func (u *unit) watched(a av, c tidC) bool {
	line := int64(lineBytes)
	for t := int64(0); t < int64(u.opt.Threads); t++ {
		if !c.allows(t) {
			continue
		}
		for _, r := range u.regions {
			if regionCoversLine(r.target, floorDiv(a.at(t), line), line, int64(u.opt.Threads)) {
				return true
			}
		}
	}
	return false
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
		if v := a.loAt(t); v < 0 || uint64(v) < core.LockRegion {
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
	line := int64(lineBytes)
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
