package vet

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/isa"
)

// Phase slicing. A "phase" is a maximal CFG region delimited by barrier
// completion points: matched filter stalls, HWBAR instructions, the exits
// of spin branches that test a synchronization-tainted register (the last
// instruction of every software barrier's waiter path), and exact stores
// into the barrier region (the releaser path's flag/counter writes —
// without them the last arriver's spin-free path would re-merge the phases
// the spin exits split). Within one phase threads run
// unordered, so the race checks below must prove every cross-thread
// store/store and store/load pair disjoint there; across phases the barrier
// orders them.
//
// Construction: every out-edge of a boundary instruction enters a fresh
// phase; all other edges propagate their source's phase, merging phases
// (union-find) where unsliced paths join. The merging handles the loop
// shape exactly: a loop body containing a single barrier collapses to one
// phase via its back edge — correctly, because iteration i's post-barrier
// tail runs concurrently with iteration i+1's pre-barrier head — while a
// body with two barriers splits in two.
//
// Caveat, by design: a boundary is treated as a global completion point.
// That is exact for the filter mechanisms and HWBAR, and for centralized
// software barriers; a combining-tree barrier's intermediate rounds order
// only subtrees, so its inner spin exits over-slice. The dynamic
// happens-before oracle (internal/hbcheck) exists precisely to backstop
// this gap: certificates are advisory, diagnostics remain must-facts, and
// every program the static layer passes must also replay race-free.

// PhaseInfo is the per-phase certificate Analyze reports: whether every
// cross-thread store/store and store/load pair with an analyzable address
// in the static data region was proved disjoint within the phase.
type PhaseInfo struct {
	ID        int
	Insts     int // reachable instructions assigned to the phase
	Stores    int // recorded data-region store variants
	Loads     int // recorded data-region load variants
	Certified bool
	Reason    string // why certification failed (empty when certified)
}

// accRec is one memory access recorded along a specific CFG edge: the
// refined edge state gives first-iteration records their exact addresses
// even when the joined loop-head state is an interval.
type accRec struct {
	idx   int
	addr  av
	width int
	tid   tidC
	phase int
	any   bool // phase contains a stub-rooted path: conflicts with all
	store bool
	// lock is the hardware-lock hold state the access executes under
	// (zero value when not provably held): two accesses made holding the
	// same lock are mutually exclusive and cannot race.
	lock lockSt
}

// computePhases slices the CFG at the boundary instructions' out-edges and
// fills u.phase/u.phaseAny with dense canonical ids.
func (u *unit) computePhases(bounds []int) {
	n := len(u.insts)
	u.phase = make([]int, n)
	for i := range u.phase {
		u.phase[i] = -1
	}
	isBound := make([]bool, n)
	for _, i := range bounds {
		if i >= 0 && i < n {
			isBound[i] = true
		}
	}

	// Union-find over provisional phase labels.
	var parent []int
	var anyFlag []bool
	newPhase := func(any bool) int {
		parent = append(parent, len(parent))
		anyFlag = append(anyFlag, any)
		return len(parent) - 1
	}
	var find func(x int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra == rb {
			return
		}
		parent[rb] = ra
		anyFlag[ra] = anyFlag[ra] || anyFlag[rb]
	}

	label := make([]int, n) // provisional label per instruction
	for i := range label {
		label[i] = -1
	}
	var work []int
	seed := func(i, ph int) {
		if i < 0 || i >= n {
			return
		}
		if label[i] == -1 {
			label[i] = ph
			work = append(work, i)
			return
		}
		union(label[i], ph)
	}
	seed(u.entryIdx, newPhase(false))
	for _, r := range u.roots {
		if r != u.entryIdx && label[r] == -1 {
			// Stall-stub roots run mid-phase at an unknown point; their
			// phase conflicts with every other.
			seed(r, newPhase(true))
		}
	}
	// Each boundary out-edge gets its own fresh phase, memoized per edge so
	// re-traversals agree.
	edgePhase := map[[2]int]int{}
	for len(work) > 0 {
		i := work[len(work)-1]
		work = work[:len(work)-1]
		for ei, sc := range u.succs[i] {
			ph := label[i]
			if isBound[i] {
				key := [2]int{i, ei}
				p, ok := edgePhase[key]
				if !ok {
					p = newPhase(false)
					edgePhase[key] = p
				}
				ph = p
			}
			seed(sc, ph)
		}
	}

	// Canonicalize to dense ids in first-instruction order.
	canon := map[int]int{}
	for i := 0; i < n; i++ {
		if label[i] == -1 {
			continue
		}
		r := find(label[i])
		id, ok := canon[r]
		if !ok {
			id = len(canon)
			canon[r] = id
			u.phaseAny = append(u.phaseAny, anyFlag[r])
		}
		u.phase[i] = id
	}
}

// collectAccesses records every load and store with an analyzable address
// along each CFG edge, in the edge's refined state, stepping each block
// forward from its head. Recording per edge (rather than at the joined
// in-state) keeps the preheader edge of a loop exact: the first-iteration
// store address is a point even when the loop head has widened to an
// interval.
func (u *unit) collectAccesses(states []pstate) ([]accRec, map[int]bool) {
	var recs []accRec
	// unbounded marks instructions with at least one feasible in-edge
	// variant whose address the domain could not bound: such an access can
	// alias anything, so its phase must not certify no matter what the
	// other (recorded) variants prove.
	unbounded := map[int]bool{}
	seen := map[string]bool{}
	record := func(j int, st pstate) {
		in := u.insts[j]
		isSt := in.IsStore()
		if !isSt && !in.IsLoad() {
			return
		}
		if st.tid.kind == tidNone {
			return
		}
		addr := avAdd(st.regs[in.Rs1&31], avCon(int64(in.Imm)))
		if !addr.bounded() {
			unbounded[j] = true
		}
		if !addr.known {
			return
		}
		ph := u.phaseAt(j)
		anyPh := ph >= 0 && ph < len(u.phaseAny) && u.phaseAny[ph]
		var lk lockSt
		if st.lock.kind == lockHeld {
			lk = st.lock
		}
		r := accRec{
			idx: j, addr: addr, width: isa.Lookup(in.Op).MemBytes,
			tid: st.tid, phase: ph, any: anyPh, store: isSt, lock: lk,
		}
		k := fmt.Sprintf("%d:%v:%v:%v:%v", j, addr, st.tid, isSt, lk)
		if seen[k] {
			return
		}
		seen[k] = true
		recs = append(recs, r)
	}
	// Roots are entered in their seeding state.
	entry := u.entryState()
	for _, r := range u.roots {
		record(r, entry)
	}
	for b := range u.blocks {
		if states[b].live {
			u.flow(b, states[b], nil, record)
		}
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].idx < recs[j].idx })
	return recs, unbounded
}

// samePhase reports whether two records can run concurrently: same phase,
// or either record belongs to a stub-rooted phase.
func samePhase(a, b accRec) bool {
	return a.any || b.any || (a.phase >= 0 && a.phase == b.phase)
}

// sameLock reports whether both records were provably made holding the
// same hardware lock: the critical sections are mutually exclusive, so
// the pair cannot race even within one phase. The lock target is the
// thread's own line (base + tid·stride); structural equality of the
// affine form identifies the lock, not any one thread's line.
func sameLock(a, b accRec) bool {
	return a.lock.kind == lockHeld && a.lock == b.lock
}

// dataRegion reports whether the record's footprint provably lies in the
// static data region for every allowed thread.
func (u *unit) dataRegion(r accRec) bool {
	for t := int64(0); t < int64(u.opt.Threads); t++ {
		if !r.tid.allows(t) {
			continue
		}
		lo, hi := r.addr.loAt(t), r.addr.hiAt(t)
		if lo < 0 || infPos(hi) || uint64(lo) < core.DataBase ||
			uint64(hi)+uint64(r.width) > core.StackRegion {
			return false
		}
	}
	return true
}

// checkPhaseRaces reports provable cross-thread conflicting accesses to the
// static data region within one phase — the data-partition discipline the
// kernels rely on between barriers, generalized from the v1 fence-interval
// grouping to barrier-delimited phases and from exact partitions to
// bounded dynamic ones:
//
//   - exact store vs exact store overlapping across distinct threads:
//     cross-partition-store (the v1 must-check);
//   - exact store vs exact load overlapping across distinct threads:
//     store-load-race;
//   - bounded-interval store pairs (dynamic partitions) whose footprints
//     can overlap across distinct threads: dyn-partition-overlap.
//
// Unbounded or Top addresses stay silent here and only degrade the phase
// certificate.
func (u *unit) checkPhaseRaces(recs []accRec) []Diagnostic {
	if u.opt.Threads < 2 {
		return nil
	}
	var ds []Diagnostic
	reported := map[[2]int]bool{}
	report := func(code Code, a, b accRec, format string, args ...any) {
		key := [2]int{a.idx, b.idx}
		if reported[key] {
			return
		}
		reported[key] = true
		ds = append(ds, u.diag(code, b.idx, format, args...))
	}
	var stores, all []accRec
	for _, r := range recs {
		if !u.dataRegion(r) {
			continue
		}
		all = append(all, r)
		if r.store {
			stores = append(stores, r)
		}
	}
	for _, a := range stores {
		for _, b := range all {
			if !b.store && !a.addr.exact() {
				continue // store/load rule is exact-only
			}
			if b.store && b.idx < a.idx {
				continue // store pairs once (self-pairs included)
			}
			if !samePhase(a, b) || sameLock(a, b) {
				continue
			}
			switch {
			case a.addr.exact() && b.addr.exact():
				if t, v, ok := u.findRaceExact(a, b); ok {
					if b.store {
						report(CodeCrossPartitionStore, a, b,
							"threads %d and %d write overlapping bytes (%#x and %#x): a store escapes its thread's data partition",
							t, v, uint64(a.addr.at(t)), uint64(b.addr.at(v)))
					} else {
						report(CodeStoreLoadRace, a, b,
							"thread %d's store to %#x races thread %d's load from %#x in the same phase",
							t, uint64(a.addr.at(t)), v, uint64(b.addr.at(v)))
					}
				}
			case b.store && a.addr.bounded() && b.addr.bounded():
				if t, v, ok := u.findRaceBounded(a, b); ok {
					report(CodeDynPartitionOverlap, a, b,
						"threads %d and %d can write overlapping bytes (%s and %s): dynamic partitions overlap",
						t, v, u.describeAV(a.addr), u.describeAV(b.addr))
				}
			}
		}
	}
	return ds
}

// findRaceExact looks for distinct threads t (executing access a) and v
// (executing access b) whose exact footprints overlap.
func (u *unit) findRaceExact(a, b accRec) (int64, int64, bool) {
	T := int64(u.opt.Threads)
	overlap := func(t, v int64) bool {
		if t == v || t < 0 || v < 0 || t >= T || v >= T || !a.tid.allows(t) || !b.tid.allows(v) {
			return false
		}
		x, y := a.addr.at(t), b.addr.at(v)
		return x < y+int64(b.width) && y < x+int64(a.width)
	}
	for t := int64(0); t < T; t++ {
		if !a.tid.allows(t) {
			continue
		}
		if b.addr.coef == 0 {
			for v := int64(0); v < T; v++ {
				if overlap(t, v) {
					return t, v, true
				}
			}
			continue
		}
		v0 := (a.addr.at(t) - b.addr.base()) / b.addr.coef
		for d := int64(-2); d <= 2; d++ {
			if overlap(t, v0+d) {
				return t, v0 + d, true
			}
		}
	}
	return 0, 0, false
}

// findRaceBounded looks for distinct threads whose bounded interval
// footprints can overlap. O(T²) worst case with T capped at maxThreads;
// in practice the tid constraints and strides cut it short.
func (u *unit) findRaceBounded(a, b accRec) (int64, int64, bool) {
	T := int64(u.opt.Threads)
	for t := int64(0); t < T; t++ {
		if !a.tid.allows(t) {
			continue
		}
		aLo, aHi := a.addr.loAt(t), satAdd(a.addr.hiAt(t), int64(a.width)-1)
		for v := int64(0); v < T; v++ {
			if v == t || !b.tid.allows(v) {
				continue
			}
			bLo, bHi := b.addr.loAt(v), satAdd(b.addr.hiAt(v), int64(b.width)-1)
			if aLo <= bHi && bLo <= aHi {
				return t, v, true
			}
		}
	}
	return 0, 0, false
}

// certify builds the per-phase certificates: a phase is certified when
// every cross-thread store/store and store/load pair among its recorded
// data-region accesses is provably disjoint, and it contains no store or
// load whose address the domain could not bound.
func (u *unit) certify(recs []accRec, unbounded map[int]bool) []PhaseInfo {
	nPhases := 0
	for _, p := range u.phase {
		if p >= nPhases {
			nPhases = p + 1
		}
	}
	if nPhases == 0 {
		return nil
	}
	infos := make([]PhaseInfo, nPhases)
	for i := range infos {
		infos[i] = PhaseInfo{ID: i, Certified: true}
	}
	for i, p := range u.phase {
		if p >= 0 && u.reachable[i] {
			infos[p].Insts++
		}
	}
	fail := func(p int, reason string) {
		if p < 0 || p >= nPhases {
			return
		}
		if infos[p].Certified {
			infos[p].Certified = false
			infos[p].Reason = reason
		}
	}
	// Unanalyzable accesses: any reachable load/store with an in-edge
	// variant whose address is not a bounded interval leaves its phase
	// uncertified — one bounded variant does not cover the others.
	covered := map[int]bool{}
	for _, r := range recs {
		if r.addr.bounded() {
			covered[r.idx] = true
		}
	}
	for i, in := range u.insts {
		if !u.reachable[i] || (!in.IsStore() && !in.IsLoad()) {
			continue
		}
		if covered[i] && !unbounded[i] {
			continue
		}
		kind := "load"
		if in.IsStore() {
			kind = "store"
		}
		fail(u.phaseAt(i), fmt.Sprintf("%s at %s has an unbounded address", kind, u.p.Locate(u.addrOf(i))))
	}
	// Stub-rooted phases conflict with everything.
	for p, any := range u.phaseAny {
		if any {
			fail(p, "phase is entered from a resolved stall stub at an unknown point")
		}
	}
	// Pairwise disjointness among the records (bounded, data region).
	var stores, all []accRec
	for _, r := range recs {
		if !r.addr.bounded() {
			continue
		}
		inData := u.dataRegion(r)
		if r.phase >= 0 && r.phase < nPhases && inData {
			if r.store {
				infos[r.phase].Stores++
			} else {
				infos[r.phase].Loads++
			}
		}
		if !inData {
			continue
		}
		all = append(all, r)
		if r.store {
			stores = append(stores, r)
		}
	}
	for _, a := range stores {
		for _, b := range all {
			if b.store && b.idx < a.idx {
				continue
			}
			if !samePhase(a, b) || sameLock(a, b) {
				continue
			}
			if a.idx == b.idx && a.addr == b.addr && !b.store {
				continue
			}
			if t, v, ok := u.findRaceBounded(a, b); ok {
				kind := "store/store"
				if !b.store {
					kind = "store/load"
				}
				fail(a.phase, fmt.Sprintf(
					"%s pair %s and %s may overlap for threads %d and %d",
					kind, u.p.Locate(u.addrOf(a.idx)), u.p.Locate(u.addrOf(b.idx)), t, v))
				if b.phase != a.phase {
					fail(b.phase, infos[a.phase].Reason)
				}
			}
		}
	}
	return infos
}
