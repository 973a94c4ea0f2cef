package vet

import (
	"repro/internal/isa"
)

// av is a value in the interval-over-affine abstract domain:
//
//	value = base + coef·tid,  base ∈ [lo, hi]
//
// or Top (known == false). The thread coefficient stays exact — it is the
// partition stride the discipline checks reason about — while the base
// carries an interval so loop-variant values (induction variables, data
// dependent bounds masked into a range) stay analyzable instead of
// collapsing to Top. lo/hi saturate at the ±infinity sentinels below; a
// value is "exact" when lo == hi and finite, which is the fragment the
// original affine domain expressed. All downstream diagnostics remain
// "must" checks over the exact fragment; bounded intervals additionally
// feed the may-level dynamic-partition overlap check and the per-phase
// race certificates, and unbounded or Top values stay silent.
type av struct {
	known  bool
	lo, hi int64 // base interval endpoints, saturating at ±inf
	coef   int64
}

// Saturation sentinels. Anything at or beyond them is treated as infinite;
// finite magnitudes stay below 2^62 so endpoint sums cannot overflow int64.
const (
	avNegInf = int64(-1) << 62
	avPosInf = int64(1) << 62

	// maxCoef bounds the thread coefficient; larger strides widen to Top
	// so hostile inputs cannot push the footprint math toward overflow.
	maxCoef = int64(1) << 40
)

func infNeg(v int64) bool { return v <= avNegInf }
func infPos(v int64) bool { return v >= avPosInf }

func satClamp(v int64) int64 { return min(max(v, avNegInf), avPosInf) }

// satAdd adds interval endpoints with saturation. Mixed infinities cannot
// arise from well-formed endpoint sums (lo is only added to lo, hi to hi);
// the defensive result is Top-ish (+inf) which downstream checks ignore.
func satAdd(a, b int64) int64 {
	switch {
	case infNeg(a) || infNeg(b):
		if infPos(a) || infPos(b) {
			return avPosInf
		}
		return avNegInf
	case infPos(a) || infPos(b):
		return avPosInf
	}
	return satClamp(a + b)
}

// satMulEnd multiplies a finite scalar by an interval endpoint.
func satMulEnd(s, e int64) int64 {
	if s == 0 {
		return 0
	}
	if infNeg(e) || infPos(e) {
		if (s < 0) == infNeg(e) {
			return avPosInf
		}
		return avNegInf
	}
	as, ae := s, e
	if as < 0 {
		as = -as
	}
	if ae < 0 {
		ae = -ae
	}
	if ae != 0 && as > avPosInf/ae {
		if (s < 0) == (e < 0) {
			return avPosInf
		}
		return avNegInf
	}
	return satClamp(s * e)
}

func avTop() av        { return av{} }
func avCon(v int64) av { return av{known: true, lo: v, hi: v} }
func avTid() av        { return av{known: true, coef: 1} }

// mkAV normalizes a freshly computed value.
func mkAV(lo, hi, coef int64) av {
	if coef > maxCoef || coef < -maxCoef {
		return avTop()
	}
	if lo > hi {
		lo, hi = hi, lo
	}
	return av{known: true, lo: satClamp(lo), hi: satClamp(hi), coef: coef}
}

// exact reports whether the value is a single known point (the original
// affine domain's fragment).
func (a av) exact() bool { return a.known && a.lo == a.hi && !infNeg(a.lo) && !infPos(a.lo) }

// bounded reports whether both endpoints are finite.
func (a av) bounded() bool { return a.known && !infNeg(a.lo) && !infPos(a.hi) }

// base returns the exact base (exact values only).
func (a av) base() int64 { return a.lo }

// at evaluates an exact value for a concrete thread id.
func (a av) at(t int64) int64 { return a.lo + a.coef*t }

// loAt/hiAt bound the value for a concrete thread id.
func (a av) loAt(t int64) int64 { return satAdd(a.lo, a.coef*t) }
func (a av) hiAt(t int64) int64 { return satAdd(a.hi, a.coef*t) }

// avJoin is the interval join: equal coefficients merge their base
// intervals, anything else widens to Top.
func avJoin(a, b av) av {
	if a == b {
		return a
	}
	if !a.known || !b.known || a.coef != b.coef {
		return avTop()
	}
	return av{known: true, lo: min(a.lo, b.lo), hi: max(a.hi, b.hi), coef: a.coef}
}

// avJoinExact is the v1 affine join (Options.AffineOnly): values merge only
// when identical.
func avJoinExact(a, b av) av {
	if a == b {
		return a
	}
	return avTop()
}

// avWiden is the widening operator applied at loop heads once a state has
// kept changing past the widening delay: any endpoint still growing jumps
// straight to its infinity, so the ascending chain at each instruction is
// finite (each endpoint moves at most once more, then the value can only
// fall to Top on a coefficient mismatch).
func avWiden(old, new av) av {
	if old == new {
		return old
	}
	if !old.known || !new.known || old.coef != new.coef {
		return avTop()
	}
	w := old
	if new.lo < old.lo {
		w.lo = avNegInf
	}
	if new.hi > old.hi {
		w.hi = avPosInf
	}
	return w
}

func avAdd(a, b av) av {
	if !a.known || !b.known {
		return avTop()
	}
	return mkAV(satAdd(a.lo, b.lo), satAdd(a.hi, b.hi), a.coef+b.coef)
}

func avSub(a, b av) av {
	if !a.known || !b.known {
		return avTop()
	}
	return mkAV(satAdd(a.lo, -b.hi), satAdd(a.hi, -b.lo), a.coef-b.coef)
}

func avMul(a, b av) av {
	if !a.known || !b.known {
		return avTop()
	}
	scale := func(s int64, v av) av {
		c := s * v.coef
		if v.coef != 0 && (c/v.coef != s || c > maxCoef || c < -maxCoef) {
			return avTop()
		}
		return mkAV(satMulEnd(s, v.lo), satMulEnd(s, v.hi), c)
	}
	switch {
	case a.exact() && a.coef == 0:
		return scale(a.lo, b)
	case b.exact() && b.coef == 0:
		return scale(b.lo, a)
	}
	return avTop()
}

func avShl(a av, sh int32) av {
	if !a.known || sh < 0 || sh > 31 {
		return avTop()
	}
	return avMul(avCon(int64(1)<<uint(sh)), a)
}

// tid path constraints derived from branches comparing a tid-affine value
// against a constant.
type tidKind uint8

const (
	tidAny  tidKind = iota // no constraint
	tidEq                  // tid == val
	tidNe                  // tid != val
	tidNone                // infeasible path (branch can never go this way)
)

type tidC struct {
	kind tidKind
	val  int64
}

func tidJoin(a, b tidC) tidC {
	if a == b {
		return a
	}
	if a.kind == tidNone {
		return b
	}
	if b.kind == tidNone {
		return a
	}
	return tidC{kind: tidAny}
}

// tidAnd intersects two constraints (path condition conjunction). The
// domain cannot express every conjunction; unrepresentable ones keep the
// new constraint, which over-approximates the executing-thread set — safe
// for the checks, which only need allows() to never rule out a thread that
// can actually reach the point.
func tidAnd(old, new tidC) tidC {
	switch {
	case old.kind == tidAny:
		return new
	case old.kind == tidNone || new.kind == tidNone:
		return tidC{kind: tidNone}
	case old.kind == tidEq && new.kind == tidEq:
		if old.val == new.val {
			return old
		}
		return tidC{kind: tidNone}
	case old.kind == tidEq && new.kind == tidNe:
		if old.val == new.val {
			return tidC{kind: tidNone}
		}
		return old
	case old.kind == tidNe && new.kind == tidEq:
		if old.val == new.val {
			return tidC{kind: tidNone}
		}
		return new
	}
	return new
}

// allows reports whether thread t can execute under the constraint.
func (c tidC) allows(t int64) bool {
	switch c.kind {
	case tidEq:
		return t == c.val
	case tidNe:
		return t != c.val
	case tidNone:
		return false
	}
	return true
}

// invalidation-protocol state: what this path has invalidated but not yet
// stalled on.
type invKind uint8

const (
	invNone invKind = iota
	invSome         // one pending invalidation (target may still be Top)
	invMany         // joined paths disagree — unknown, checks stay silent
)

type invState struct {
	kind    invKind
	target  av   // invalidated address (Top when data-dependent)
	idx     int  // instruction index of the ICBI/DCBI
	icache  bool // ICBI (true) or DCBI (false)
	flushed bool // IFLUSH executed since the invalidation
}

func invJoin(a, b invState) invState {
	if a == b {
		return a
	}
	if a.kind == invNone && b.kind == invNone {
		return invState{}
	}
	return invState{kind: invMany}
}

// hardware-lock protocol state: whether this path provably holds a
// sync-engine lock (acquired via the dcbi+ld grant sequence on its own
// lock line, released by a dcbi of that same line).
type lockKind uint8

const (
	lockNone lockKind = iota
	lockHeld          // holding the lock whose line is target
	lockMany          // joined paths disagree — lock checks stay silent
)

type lockSt struct {
	kind   lockKind
	target av // the thread's own lock line (affine in tid)
}

// lockJoin joins the lock hold states of two paths. A path no thread can
// take (tid constraint tidNone: a branch edge refine proved dead) carries
// no lock fact, so the feasible path's state wins. Otherwise a dead edge
// into a critical section — its acquire load finds no thread to grant, so
// it never takes the lock — would demote the live path's held lock to
// lockMany, and the section would lose its mutual-exclusion credit.
func lockJoin(s, o pstate) lockSt {
	a, b := s.lock, o.lock
	switch {
	case a == b:
		return a
	case s.tid.kind == tidNone && o.tid.kind != tidNone:
		return b
	case o.tid.kind == tidNone && s.tid.kind != tidNone:
		return a
	}
	if a.kind == lockNone && b.kind == lockNone {
		return lockSt{}
	}
	return lockSt{kind: lockMany}
}

// pstate is the abstract machine state the protocol pass propagates along
// each CFG edge.
type pstate struct {
	live  bool // state has been seeded (distinguishes bottom from entry)
	regs  [isa.NumIntRegs]av
	dirty bool // stores issued since the last FENCE
	inv   invState
	tid   tidC
	// sync is a must-bitmask of integer registers whose current value was
	// loaded from a provably-synchronization address (the barrier data
	// region). A conditional branch testing such a register is a barrier
	// completion point — the spin-exit shape every software barrier ends
	// with — and delimits phases (see phase.go). The mask joins with AND:
	// a register is sync-tainted only when every path loaded it from the
	// synchronization region.
	sync uint32
	// lock tracks the hardware-lock hold state along this path: the
	// acquire-before-touch / release-on-all-paths discipline, plus the
	// mutual-exclusion credit the race checks grant same-lock critical
	// sections.
	lock lockSt
}

// joinState joins two states under the active domain (interval by default,
// the v1 exact-affine join under Options.AffineOnly).
func (u *unit) joinState(s, o pstate) pstate {
	if u.opt.AffineOnly {
		return mergeState(s, o, avJoinExact)
	}
	return mergeState(s, o, avJoin)
}

// mergeState merges two states, the registers through reg (a join, or
// avWiden with s the old state), the finite lattice components through
// their joins.
func mergeState(s, o pstate, reg func(a, b av) av) pstate {
	if !s.live {
		return o
	}
	if !o.live {
		return s
	}
	n := pstate{live: true, dirty: s.dirty || o.dirty}
	for i := range n.regs {
		n.regs[i] = reg(s.regs[i], o.regs[i])
	}
	n.inv = invJoin(s.inv, o.inv)
	n.tid = tidJoin(s.tid, o.tid)
	n.sync = s.sync & o.sync
	n.lock = lockJoin(s, o)
	return n
}

// entryState is the loader-established machine state: a0 = tid,
// a1 = nthreads, x0 = 0. The stack pointer is per-thread but never enters
// address arithmetic the checks care about, so it stays Top. A resolved
// stall stub runs mid-program, so it too is analyzed under only these
// loader invariants.
func (u *unit) entryState() pstate {
	s := pstate{live: true}
	s.regs[isa.RegZero] = avCon(0)
	s.regs[isa.RegA0] = avTid()
	s.regs[isa.RegA1] = avCon(int64(u.opt.Threads))
	return s
}

// xfer applies instruction i's register effect to the state.
func (u *unit) xfer(s *pstate, i int, in isa.Inst) {
	val := func(r uint8) av {
		return s.regs[r&31]
	}
	set := func(r uint8, v av) { setReg(s, r, v) }
	masked := !u.opt.AffineOnly // interval rules for masking/shifting ops
	switch in.Op {
	case isa.LI:
		set(in.Rd, avCon(int64(in.Imm)))
	case isa.ADDI:
		set(in.Rd, avAdd(val(in.Rs1), avCon(int64(in.Imm))))
	case isa.ADD:
		set(in.Rd, avAdd(val(in.Rs1), val(in.Rs2)))
	case isa.SUB:
		set(in.Rd, avSub(val(in.Rs1), val(in.Rs2)))
	case isa.MUL:
		set(in.Rd, avMul(val(in.Rs1), val(in.Rs2)))
	case isa.SLLI:
		set(in.Rd, avShl(val(in.Rs1), in.Imm))
	case isa.SRLI:
		a := val(in.Rs1)
		sh := in.Imm
		if masked && a.known && a.coef >= 0 && a.lo >= 0 && sh >= 0 && sh < 64 {
			// A tid term does not shift affinely (tid>>1 is not affine in
			// tid); collapse it into the interval over the allowed thread
			// range first — v ∈ [lo, hi + coef·(T-1)] — then shift. The
			// coef == 0 case reduces to a plain interval shift. This is
			// what keeps a combining tree's per-round node index
			// (tid >> round+1, scaled) a bounded barrier-region address.
			hi := a.hi
			if a.coef > 0 {
				hi = satAdd(hi, satMulEnd(a.coef, int64(u.opt.Threads-1)))
			}
			if !infPos(hi) {
				hi >>= uint(sh)
			}
			set(in.Rd, mkAV(a.lo>>uint(sh), hi, 0))
		} else {
			set(in.Rd, avTop())
		}
	case isa.XORI:
		a := val(in.Rs1)
		switch {
		case a.exact() && a.coef == 0:
			set(in.Rd, avCon(a.lo^int64(in.Imm)))
		case masked && in.Imm >= 0 && a.known && a.coef == 0 && a.lo >= 0:
			// xor with a non-negative mask keeps 0 ≤ v^m ≤ v+m.
			set(in.Rd, mkAV(0, satAdd(a.hi, int64(in.Imm)), 0))
		default:
			set(in.Rd, avTop())
		}
	case isa.ANDI:
		a := val(in.Rs1)
		switch {
		case a.exact() && a.coef == 0:
			set(in.Rd, avCon(a.lo&int64(in.Imm)))
		case masked && in.Imm >= 0:
			// AND with a non-negative mask lands in [0, mask] for any
			// operand, even Top: the rule that turns data-dependent
			// indices and lengths into bounded intervals.
			set(in.Rd, mkAV(0, int64(in.Imm), 0))
		default:
			set(in.Rd, avTop())
		}
	case isa.ORI:
		a := val(in.Rs1)
		switch {
		case a.exact() && a.coef == 0:
			set(in.Rd, avCon(a.lo|int64(in.Imm)))
		case masked && in.Imm >= 0 && a.known && a.coef == 0 && a.lo >= 0:
			// or with a non-negative mask keeps m ≤ v|m ≤ v+m.
			set(in.Rd, mkAV(int64(in.Imm), satAdd(a.hi, int64(in.Imm)), 0))
		default:
			set(in.Rd, avTop())
		}
	case isa.JAL, isa.JALR:
		// The link register holds the (constant) return address.
		set(in.Rd, avCon(int64(u.addrOf(i)+isa.WordBytes)))
	default:
		if rd, ok := in.DefInt(); ok {
			set(rd, avTop())
		}
	}
	// Any definition invalidates the defined register's sync taint; the
	// caller (step) re-taints loads from the synchronization region.
	if rd, ok := in.DefInt(); ok {
		s.sync &^= 1 << rd
	}
}

// refine returns the state for one outgoing edge of a conditional branch.
// Two families of facts are extracted:
//
//   - a tid constraint when the branch compares an exact tid-affine value
//     to an exact constant (the canonical "if tid != 0 skip" guard);
//   - interval narrowing when the operands share a thread coefficient, so
//     their comparison reduces to a comparison of the base intervals. This
//     is the narrowing half of the widening/narrowing pair: a loop head
//     widened to [0, +inf) re-enters its body through the bound check and
//     the body sees the narrowed [0, bound-1] again.
func refine(s pstate, in isa.Inst, taken bool) pstate {
	a, b := s.regs[in.Rs1&31], s.regs[in.Rs2&31]
	switch in.Op {
	case isa.BEQ, isa.BNE:
		s = refineTid(s, in, taken) // a tid constraint; the registers stay
		if !a.known || !b.known || a.coef != b.coef {
			return s
		}
		if (in.Op == isa.BEQ) == taken {
			// Equal edge: intersect the base intervals.
			lo, hi := max(a.lo, b.lo), min(a.hi, b.hi)
			if lo > hi {
				s.tid = tidC{kind: tidNone}
				return s
			}
			n := av{known: true, lo: lo, hi: hi, coef: a.coef}
			setReg(&s, in.Rs1, n)
			setReg(&s, in.Rs2, n)
			return s
		}
		// Not-equal edge: trim an endpoint equal to an exact other side.
		trim := func(x av, v int64) (av, bool) {
			if x.lo == v && x.hi == v {
				return x, false // infeasible: x must equal v but edge says not
			}
			if x.lo == v {
				x.lo = satAdd(x.lo, 1)
			}
			if x.hi == v {
				x.hi = satAdd(x.hi, -1)
			}
			return x, true
		}
		x, r, v := a, in.Rs1, b // trim the other side by an exact one
		if !b.exact() {
			x, r, v = b, in.Rs2, a
		}
		if v.exact() {
			n, ok := trim(x, v.lo)
			if !ok {
				s.tid = tidC{kind: tidNone}
				return s
			}
			setReg(&s, r, n)
		}
		return s
	case isa.BLT, isa.BGE, isa.BLTU, isa.BGEU:
		if !a.known || !b.known || a.coef != b.coef {
			return s
		}
		if in.Op == isa.BLTU || in.Op == isa.BGEU {
			// Unsigned compares match the signed narrowing only when both
			// sides are provably non-negative.
			if a.lo < 0 || b.lo < 0 {
				return s
			}
		}
		lt := (in.Op == isa.BLT || in.Op == isa.BLTU) == taken
		na, nb := a, b
		if lt {
			// a < b: a ≤ max(b)-1, b ≥ min(a)+1.
			na.hi, nb.lo = min(na.hi, satAdd(b.hi, -1)), max(nb.lo, satAdd(a.lo, 1))
		} else {
			// a ≥ b: a ≥ min(b), b ≤ max(a).
			na.lo, nb.hi = max(na.lo, b.lo), min(nb.hi, a.hi)
		}
		if na.lo > na.hi || nb.lo > nb.hi {
			s.tid = tidC{kind: tidNone}
			return s
		}
		setReg(&s, in.Rs1, na)
		setReg(&s, in.Rs2, nb)
		return s
	}
	return s
}

// setReg writes a refined value back, never touching x0.
func setReg(s *pstate, r uint8, v av) {
	if r&31 != isa.RegZero {
		s.regs[r&31] = v
	}
}

// refineTid adds the tid path constraint from an exact affine-vs-constant
// equality branch (the v1 refinement, unchanged).
func refineTid(s pstate, in isa.Inst, taken bool) pstate {
	a, b := s.regs[in.Rs1&31], s.regs[in.Rs2&31]
	if !a.exact() || !b.exact() {
		return s
	}
	if a.coef == 0 && b.coef != 0 {
		a, b = b, a
	}
	if a.coef == 0 || b.coef != 0 {
		return s // not (tid-affine vs constant)
	}
	// a.base + a.coef·t == b.base ⇒ t == (b.base - a.base) / a.coef.
	d := b.base() - a.base()
	solvable := d%a.coef == 0
	t := int64(0)
	if solvable {
		t = d / a.coef
	}
	eqEdge := (in.Op == isa.BEQ) == taken // this edge is the "equal" outcome
	switch {
	case eqEdge && solvable:
		s.tid = tidAnd(s.tid, tidC{kind: tidEq, val: t})
	case eqEdge && !solvable:
		s.tid = tidC{kind: tidNone}
	case !eqEdge && solvable:
		s.tid = tidAnd(s.tid, tidC{kind: tidNe, val: t})
	}
	return s
}
