package cpu

import (
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/mem"
)

// Brute-force scheduler oracle.
//
// The pipeline stages act on age-ordered side lists (ready, parked, flight,
// missq, storeq) and per-producer wake lists instead of scanning the window.
// This file keeps the scan semantics as the reference: after every Tick the
// rig recomputes each set by walking the window ring and requires the lists
// to be equal to it, in order — for the scan's selectable set, the
// age-ordered merge of ready and parked, where parked may hold only loads
// behind a store whose address is unresolved. Every slot a side list, a
// wake link or the producer table names must lie in the ring's live part: a
// slot left behind by a squash or a commit names a reused or dead entry. It
// also holds missWaitStage's gate to its claim: while missIdle holds, every
// load on missq still finds its line absent and its fill outstanding, so
// the scan the gate skips would do nothing. Every program the package's
// tests and the FuzzTranslateDiff generator run goes through it
// (testRig.tick).

// tick advances core c one cycle and checks its scheduler state.
func (r *testRig) tick(c *Core) {
	c.Tick(r.now)
	if err := checkSched(c); err != nil {
		r.t.Fatalf("cycle %d core %d: %v", r.now, c.ID, err)
	}
}

type waiter struct {
	s slot
	k int
}

// checkSched compares the side lists, wake lists and producer table with
// what a window scan yields.
func checkSched(c *Core) error {
	var ready, flight, missq, storeq []slot
	var producer [64]slot
	live := make(map[slot]bool, c.win.n)
	waiters := make(map[slot]map[waiter]bool)
	memOps := 0
	for i := range c.win.n {
		s := slot(c.win.idx(i) + 1)
		e := c.at(s)
		if e.self != s {
			return fmt.Errorf("seq %d in slot %d names itself slot %d", e.seq, s, e.self)
		}
		if i > 0 && c.win.at(i-1).seq >= e.seq {
			return fmt.Errorf("window not in age order at %d", i)
		}
		live[s] = true
		if !e.issued && !e.isSer && e.src[0].ready && e.src[1].ready {
			ready = append(ready, s)
		}
		if e.issued && !e.done && !e.missWait {
			flight = append(flight, s)
		}
		if e.missWait {
			missq = append(missq, s)
		}
		if e.isStore() || e.isCacheOp() {
			storeq = append(storeq, s)
		}
		if e.isLoad() || e.isStore() || e.isCacheOp() {
			memOps++
		}
		if e.dest >= 0 {
			producer[e.dest] = s
		}
		for k := range e.src {
			src := &e.src[k]
			if src.ready != (src.dep == 0) {
				return fmt.Errorf("seq %d src%d: ready=%v with dep=slot %d", e.seq, k, src.ready, src.dep)
			}
			if src.dep == 0 {
				if src.next != 0 {
					return fmt.Errorf("seq %d src%d: captured operand still linked", e.seq, k)
				}
				continue
			}
			if !live[src.dep] || c.at(src.dep).done {
				return fmt.Errorf("seq %d src%d: waits on an entry that is done or left the window", e.seq, k)
			}
			if waiters[src.dep] == nil {
				waiters[src.dep] = make(map[waiter]bool)
			}
			waiters[src.dep][waiter{s, k}] = true
		}
	}
	// Every named slot must be live before any is dereferenced.
	for _, l := range []struct {
		name string
		q    *slots
	}{{"ready", &c.ready}, {"parked", &c.parked}, {"flight", &c.flight}, {"missq", &c.missq}, {"storeq", &c.storeq}} {
		for i, s := range l.q.live() {
			if !live[s] {
				return fmt.Errorf("%s[%d] names slot %d, outside the live ring", l.name, i, s)
			}
		}
	}
	for r, s := range c.producer {
		if s != 0 && !live[s] {
			return fmt.Errorf("producer[%d] names slot %d, outside the live ring", r, s)
		}
		if s != producer[r] {
			return fmt.Errorf("producer[%d] is slot %d, window scan finds slot %d", r, s, producer[r])
		}
	}
	selectable, err := mergeParked(c)
	if err != nil {
		return err
	}
	for _, l := range []struct {
		name      string
		got, want []slot
	}{
		{"ready+parked", selectable, ready},
		{"flight", c.flight.live(), flight},
		{"missq", c.missq.live(), missq},
		{"storeq", c.storeq.live(), storeq},
	} {
		if len(l.got) != len(l.want) {
			return fmt.Errorf("%s list has %d entries, window scan finds %d", l.name, len(l.got), len(l.want))
		}
		for i := range l.got {
			if l.got[i] != l.want[i] {
				return fmt.Errorf("%s[%d] is seq %d, window scan finds seq %d", l.name, i, c.at(l.got[i]).seq, c.at(l.want[i]).seq)
			}
		}
	}
	if c.memOps != memOps {
		return fmt.Errorf("memOps = %d, window scan finds %d", c.memOps, memOps)
	}
	if c.missIdle() {
		for _, s := range c.missq.live() {
			e := c.at(s)
			if st := c.l1d.Peek(e.addr); st != mem.Invalid || !c.l1d.MissPending(e.addr) {
				return fmt.Errorf("missIdle holds, but missq's seq %d finds its line %v with a fill pending=%v",
					e.seq, st, c.l1d.MissPending(e.addr))
			}
		}
	}
	for i := range c.win.n {
		pe := c.win.at(i)
		want := waiters[pe.self]
		n := 0
		for s, k := pe.wakeHead, int(pe.wakeSrc); s != 0; n++ {
			if !live[s] {
				return fmt.Errorf("seq %d: wake list names slot %d, outside the live ring", pe.seq, s)
			}
			if n > 2*c.win.n {
				return fmt.Errorf("seq %d: wake list does not terminate", pe.seq)
			}
			if !want[waiter{s, k}] {
				return fmt.Errorf("seq %d: wake list holds (seq %d, src%d), which does not wait on it", pe.seq, c.at(s).seq, k)
			}
			delete(want, waiter{s, k}) // a second visit fails the lookup above
			s, k = c.at(s).src[k].next, int(c.at(s).src[k].nextSrc)
		}
		if len(want) != 0 {
			return fmt.Errorf("seq %d: %d waiting operands missing from its wake list", pe.seq, len(want))
		}
	}
	return nil
}

// mergeParked returns the age-ordered merge of c.ready and c.parked, after
// checking that each is in age order, that they share no entry, and that
// every parked entry is a load with an older storeq entry whose address is
// unresolved (nothing else may hide from issueStage).
func mergeParked(c *Core) ([]slot, error) {
	seq := func(s slot) uint64 { return c.at(s).seq }
	for _, l := range []struct {
		name string
		q    []slot
	}{{"ready", c.ready.live()}, {"parked", c.parked.live()}} {
		for i := 1; i < len(l.q); i++ {
			if seq(l.q[i-1]) >= seq(l.q[i]) {
				return nil, fmt.Errorf("%s list not in age order at %d", l.name, i)
			}
		}
	}
	for _, s := range c.parked.live() {
		e := c.at(s)
		if inList(c.ready, s) {
			return nil, fmt.Errorf("seq %d is on both ready and parked", e.seq)
		}
		blocked := false
		for _, o := range c.storeq.live() {
			blocked = blocked || (seq(o) < e.seq && !c.at(o).addrReady)
		}
		if !e.isLoad() || !blocked {
			return nil, fmt.Errorf("parked seq %d (%v) is not a load behind an unresolved store address", e.seq, e.in.Op)
		}
	}
	merged := make([]slot, 0, c.ready.n+c.parked.n)
	r, p := c.ready.live(), c.parked.live()
	for len(r) > 0 || len(p) > 0 {
		if len(p) == 0 || (len(r) > 0 && seq(r[0]) < seq(p[0])) {
			merged, r = append(merged, r[0]), r[1:]
		} else {
			merged, p = append(merged, p[0]), p[1:]
		}
	}
	return merged, nil
}

// TestEntryPointerFree: the RUU ring is one array of entries, and the side
// lists and wake links are slots into it. A list edit then runs no GC write
// barrier, and the ring is allocated no-scan, only while no field of entry
// (or of the store buffer's sbEntry) can hold a pointer. The size bound
// keeps the ring, RUUSize entries per running core, from growing
// alloc_mb_per_cell: entry is 128 bytes today.
func TestEntryPointerFree(t *testing.T) {
	var walk func(path string, ty reflect.Type)
	walk = func(path string, ty reflect.Type) {
		switch ty.Kind() {
		case reflect.Struct:
			for i := range ty.NumField() {
				walk(path+"."+ty.Field(i).Name, ty.Field(i).Type)
			}
		case reflect.Array:
			walk(path+"[i]", ty.Elem())
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map, reflect.Interface,
			reflect.String, reflect.Func, reflect.Chan:
			t.Errorf("%s is a %v", path, ty.Kind())
		}
	}
	walk("entry", reflect.TypeFor[entry]())
	walk("sbEntry", reflect.TypeFor[sbEntry]())
	if sz := unsafe.Sizeof(entry{}); sz > 160 {
		t.Fatalf("entry is %d bytes, over the 160-byte bound", sz)
	}
}

// findOp returns the slot of the oldest window entry with opcode op, or 0.
func findOp(c *Core, op isa.Opcode) slot {
	for i := range c.win.n {
		if e := c.win.at(i); e.in.Op == op {
			return e.self
		}
	}
	return 0
}

func inList(q slots, s slot) bool {
	for _, x := range q.live() {
		if x == s {
			return true
		}
	}
	return false
}

// fakeNet is a barrier network that releases a fixed number of cycles after
// the arrival.
type fakeNet struct{ at uint64 }

func (n *fakeNet) Arrive(now uint64, core, id int) { n.at = now + 5 }

func (n *fakeNet) TryRelease(now uint64, core, id int) bool { return now >= n.at }

func (n *fakeNet) Parked(now uint64, core, id int) bool { return now < n.at }

type schedCase struct {
	name string
	src  string
	// saw is evaluated after every cycle and must hold at least once.
	saw func(t *testing.T, c *Core) bool
	// out is the expected console output; nil expects a fault.
	out []uint64
	// mshrs, when nonzero, overrides the L1D's MSHR count.
	mshrs int
}

// TestSchedOracleCases drives the scheduler through the situations where
// the side lists could silently diverge from a window scan. Each case names
// the state it is after (saw), so a program that stops reaching it fails
// instead of passing vacuously; the oracle runs after every cycle.
func TestSchedOracleCases(t *testing.T) {
	const data = `
	.data
	.align 64
spot:	.quad 0x1111111111111111
	.align 64
other:	.quad 5
	`
	// Several cases compare each cycle with the one before it; prev is
	// cleared before every case.
	type cycleState struct {
		div         uint64 // the DIV's seq
		ring, head  int    // the window ring's length and head cursor
		waiters     bool
		mispredicts uint64
		parked      bool // the case's load was on the parked list
	}
	var prev cycleState
	// parkedUntilResolved is the trap shared by the cases whose load parks
	// on blocker (an SC or a cache-op): seen parked while the blocker's
	// address is unresolved, off the parked list on the cycle it resolves,
	// and then whatever the case adds.
	parkedUntilResolved := func(blocker isa.Opcode, then func(c *Core, b *entry, ld slot) bool) func(*testing.T, *Core) bool {
		return func(t *testing.T, c *Core) bool {
			b, ld := findOp(c, blocker), findOp(c, isa.LD)
			if b == 0 || ld == 0 {
				return false
			}
			if !c.at(b).addrReady {
				prev.parked = inList(c.parked, ld)
				return false
			}
			if prev.parked && inList(c.parked, ld) {
				t.Fatalf("load still parked after its %v's address resolved", blocker)
			}
			return prev.parked && then(c, c.at(b), ld)
		}
	}
	// A cache-op blocks like a store while its address (behind the divide)
	// is unresolved: the load parks, and leaves the parked list when the
	// cache-op issues — for the ready list, where the in-window same-line
	// cache-op holds it until it has been issued to the bus.
	cacheOpBlocker := func(mnemonic string, op isa.Opcode) schedCase {
		return schedCase{
			name: "load parked on a " + mnemonic + " with an unresolved address",
			src: `
	la t6, other
	li t3, 0
	li t4, 5
	div t0, t3, t4
	add t0, t0, t6
	` + mnemonic + ` 0(t0)
	ld t2, 0(t6)
	out t2
	halt` + data,
			saw: parkedUntilResolved(op, func(c *Core, _ *entry, ld slot) bool { return inList(c.ready, ld) }),
			out: []uint64{5},
		}
	}
	cases := []schedCase{
		{
			name: "more ready entries than IssueWidth",
			src: `
	addi t0, zero, 1
	addi t1, zero, 2
	addi t2, zero, 3
	addi t3, zero, 4
	addi t4, zero, 5
	addi t5, zero, 6
	addi a2, zero, 7
	addi a3, zero, 8
	add t0, t0, t1
	add t0, t0, t2
	add t0, t0, t3
	add t0, t0, t4
	add t0, t0, t5
	add t0, t0, a2
	add t0, t0, a3
	out t0
	halt`,
			saw: func(t *testing.T, c *Core) bool { return c.ready.n > c.Cfg.IssueWidth },
			out: []uint64{36},
		},
		{
			// On the second pass (I-cache warm, branch trained the wrong
			// way) the divide outlives the mispredicted branch: its
			// wrong-path consumers are squashed while it survives, and its
			// wake list must be rebuilt from the empty set of surviving
			// waiters before the right-path consumer registers.
			name: "squash with a surviving producer's consumers squashed",
			src: `
	li s0, 2
again:
	addi s0, s0, -1
	li t0, 100
	li t1, 7
	mul t3, s0, s0
	div t2, t0, t1
	beqz t3, last
	add t4, t2, t0
	add t5, t2, t4
	out t4
	j again
last:
	add t4, t2, t1
	out t4
	halt`,
			saw: func(t *testing.T, c *Core) bool {
				d := findOp(c, isa.DIV)
				if d == 0 {
					prev.div, prev.waiters, prev.mispredicts = 0, false, c.Mispredicts
					return false
				}
				de := c.at(d)
				hit := de.seq == prev.div && !de.done && prev.waiters &&
					c.Mispredicts > prev.mispredicts && de.wakeHead == 0
				prev.div, prev.waiters, prev.mispredicts = de.seq, de.wakeHead != 0, c.Mispredicts
				return hit
			},
			out: []uint64{114, 21},
		},
		{
			// The load's address arrives late (behind the divide), the
			// load faults inside issueStage and wakes its consumer there:
			// the consumer must issue in the same pass, as the window scan
			// would have reached it after the load.
			name: "same-cycle wake from a faulting load",
			src: `
	li t3, 0
	li t4, 5
	div t0, t3, t4
	ld t1, 0(t0)
	add t2, t1, t1
	out t2
	halt`,
			saw: func(t *testing.T, c *Core) bool {
				ld, add := findOp(c, isa.LD), findOp(c, isa.ADD)
				if ld == 0 || add == 0 || c.at(ld).fault == noFault {
					return false
				}
				if !c.at(add).issued {
					t.Fatal("consumer of the faulting load missed the issue pass")
				}
				return true
			},
		},
		{
			name: "load behind a store with an unresolved address",
			src: `
	la t6, spot
	li t3, 0
	li t4, 5
	div t0, t3, t4
	add t0, t0, t6
	li t1, 77
	st t1, 0(t0)
	ld t2, 0(t6)
	out t2
	halt` + data,
			saw: func(t *testing.T, c *Core) bool {
				st, ld := findOp(c, isa.ST), findOp(c, isa.LD)
				return st != 0 && ld != 0 && !c.at(st).addrReady && inList(c.parked, ld)
			},
			out: []uint64{77},
		},
		{
			// The first load finds the unresolved store and parks; the
			// null load behind it must still fault in that pass, on the
			// cycle it did before loads parked, as its address check
			// comes first.
			name: "faulting load behind a blocked one",
			src: `
	la t6, spot
	li t3, 0
	li t4, 5
	div t0, t3, t4
	add t0, t0, t6
	st t4, 0(t0)
	ld t1, 0(t6)
	lw t2, 0(zero)
	halt` + data,
			saw: func(t *testing.T, c *Core) bool {
				st, ld, lw := findOp(c, isa.ST), findOp(c, isa.LD), findOp(c, isa.LW)
				if st == 0 || ld == 0 || lw == 0 || c.at(st).addrReady || !inList(c.parked, ld) {
					return false
				}
				if c.at(lw).fault == noFault {
					t.Fatal("null load waited behind the parked load")
				}
				if c.Cycles != 202 { // the first hit ends the polling
					t.Fatalf("null load faulted on cycle %d, want 202", c.Cycles)
				}
				return true
			},
		},
		{
			// The store's address arrives late; the pass in which the store
			// issues must also release the load and issue it (it forwards
			// from the store, so nothing else can hold it back).
			name: "parked load released and issued in the pass its store issues",
			src: `
	la t6, spot
	li t3, 0
	li t4, 5
	div t0, t3, t4
	add t0, t0, t6
	li t1, 77
	st t1, 0(t0)
	ld t2, 0(t6)
	out t2
	halt` + data,
			saw: func(t *testing.T, c *Core) bool {
				st, ld := findOp(c, isa.ST), findOp(c, isa.LD)
				if st == 0 || ld == 0 {
					return false
				}
				hit := prev.parked && c.at(st).addrReady
				if hit && !c.at(ld).issued {
					t.Fatal("parked load missed the pass that resolved its store")
				}
				prev.parked = !c.at(st).addrReady && inList(c.parked, ld)
				return hit
			},
			out: []uint64{77},
		},
		{
			// Two stores with unresolved addresses, a load behind each
			// (second pass, I-cache warm, so all four are in the window
			// before the first divide is done). The first store's address
			// arrives first: only the load older than the second store may
			// leave the parked list.
			name: "two unresolved stores release only up to the second",
			src: `
	la t6, spot
	la t5, other
	li s0, 2
again:
	addi s0, s0, -1
	li t3, 0
	li t4, 5
	div t0, t3, t4
	add t0, t0, t6
	div a2, t3, t4
	add a2, a2, t5
	li t1, 77
	st t1, 0(t0)
	ld t2, 0(t6)
	sw t1, 0(a2)
	lw a3, 0(t5)
	add t2, t2, a3
	bnez s0, again
	out t2
	halt` + data,
			saw: func(t *testing.T, c *Core) bool {
				st, ld, sw, lw := findOp(c, isa.ST), findOp(c, isa.LD), findOp(c, isa.SW), findOp(c, isa.LW)
				if st == 0 || ld == 0 || sw == 0 || lw == 0 {
					return false
				}
				if !c.at(st).addrReady {
					prev.parked = inList(c.parked, ld) && inList(c.parked, lw)
					return false
				}
				if c.at(sw).addrReady || !prev.parked {
					return false
				}
				if inList(c.parked, ld) || !inList(c.parked, lw) {
					t.Fatalf("after the first store resolved: ld parked=%v, lw parked=%v",
						inList(c.parked, ld), inList(c.parked, lw))
				}
				return true
			},
			out: []uint64{154},
		},
		{
			// Second pass: the branch is trained not-taken and is taken, so
			// the store (address behind the divide) and the load parked on
			// it are wrong-path; the squash must take the load off the
			// parked list together with its blocker.
			name: "mispredict squashes a blocker and the loads parked on it",
			src: `
	la t6, spot
	li s0, 2
again:
	addi s0, s0, -1
	li t3, 0
	li t4, 5
	mul t5, s0, s0
	div t0, t3, t4
	add t0, t0, t6
	beqz t5, last
	st t4, 0(t0)
	ld t1, 0(t6)
	out t1
	j again
last:
	out t4
	halt` + data,
			saw: func(t *testing.T, c *Core) bool {
				d, st, ld := findOp(c, isa.DIV), findOp(c, isa.ST), findOp(c, isa.LD)
				hit := prev.parked && c.Mispredicts > prev.mispredicts && d != 0 && !c.at(d).done
				if hit && (st != 0 || ld != 0 || c.parked.n != 0) {
					t.Fatalf("after the squash: st %v, ld %v, %d parked", st != 0, ld != 0, c.parked.n)
				}
				prev.parked = st != 0 && !c.at(st).addrReady && ld != 0 && inList(c.parked, ld)
				prev.mispredicts = c.Mispredicts
				return hit
			},
			out: []uint64{5, 5},
		},
		{
			// An SC's address is unknown until it performs, which waits for
			// the LL's miss; the load to another line parks on it and is
			// released by the successful SC.
			name: "load parked on an SC that succeeds",
			src: `
	la t0, spot
	la t6, other
	li t1, 9
	ll t3, 0(t0)
	sc t4, t1, 0(t0)
	ld t2, 0(t6)
	add t2, t2, t4
	out t2
	halt` + data,
			saw: parkedUntilResolved(isa.SC, func(_ *Core, sc *entry, _ slot) bool { return sc.result == 1 }),
			out: []uint64{6},
		},
		{
			// No reservation: the SC fails once the divide ahead of it is
			// done, and failSC must release the load as well.
			name: "load parked on an SC that fails",
			src: `
	la t0, spot
	la t6, other
	li t3, 0
	li t5, 5
	div t3, t3, t5
	li t1, 9
	sc t4, t1, 0(t0)
	ld t2, 0(t6)
	add t2, t2, t4
	out t2
	halt` + data,
			saw: parkedUntilResolved(isa.SC, func(c *Core, _ *entry, _ slot) bool { return c.SCFailures == 1 }),
			out: []uint64{5},
		},
		cacheOpBlocker("dcbi", isa.DCBI),
		cacheOpBlocker("icbi", isa.ICBI),
		{
			name: "load behind a partially overlapping store",
			src: `
	la t0, spot
	li t1, 0xBEEF
	sh t1, 2(t0)
	ld t2, 0(t0)
	out t2
	halt` + data,
			saw: func(t *testing.T, c *Core) bool {
				st, ld := findOp(c, isa.SH), findOp(c, isa.LD)
				return st != 0 && ld != 0 && c.at(st).addrReady && inList(c.ready, ld)
			},
			out: []uint64{0x11111111BEEF1111},
		},
		{
			// The store's cold miss holds the store buffer's head, so the
			// committed DCBI behind it has not been issued to the bus and
			// blocks the younger load to its line.
			name: "load behind an un-issued same-line DCBI in the store buffer",
			src: `
	la t0, spot
	la t6, other
	li t1, 9
	st t1, 0(t0)
	dcbi 0(t6)
	ld t2, 0(t6)
	out t2
	halt` + data,
			saw: func(t *testing.T, c *Core) bool {
				ld := findOp(c, isa.LD)
				return ld != 0 && inList(c.ready, ld) && c.sb.n == 2 &&
					c.sb.at(1).cacheOp && c.sb.at(1).token == 0
			},
			out: []uint64{5},
		},
		{
			name: "load behind an un-done SC",
			src: `
	la t0, spot
	li t1, 9
	ll t3, 0(t0)
	sc t4, t1, 0(t0)
	ld t2, 0(t0)
	out t2
	halt` + data,
			saw: func(t *testing.T, c *Core) bool {
				sc, ld := findOp(c, isa.SC), findOp(c, isa.LD)
				return sc != 0 && ld != 0 && c.at(sc).addrReady && !c.at(sc).done && inList(c.ready, ld)
			},
			out: []uint64{9},
		},
		{
			// LL ignores the forwardable store and waits on the miss queue
			// for the line itself.
			name: "LL with a forwarding hit",
			src: `
	la t0, spot
	li t1, 33
	st t1, 0(t0)
	ll t2, 0(t0)
	fence
	out t1
	halt` + data,
			saw: func(t *testing.T, c *Core) bool {
				ll := findOp(c, isa.LL)
				return ll != 0 && inList(c.missq, ll) && (findOp(c, isa.ST) != 0 || c.sb.n > 0)
			},
			out: []uint64{33},
		},
		{
			// The same on a line already present: the store's address
			// waits on the load that brings the line in, so the LL
			// forwards with the line there and queues without a miss.
			name: "LL with a forwarding hit on a present line",
			src: `
	la t0, spot
	li t1, 33
	ld t3, 0(t0)
	and t3, t3, zero
	add t5, t0, t3
	st t1, 0(t5)
	ll t2, 0(t0)
	fence
	out t1
	halt` + data,
			saw: func(t *testing.T, c *Core) bool {
				ll := findOp(c, isa.LL)
				return ll != 0 && inList(c.missq, ll) && c.l1d.Peek(c.at(ll).addr) != mem.Invalid
			},
			out: []uint64{33},
		},
		{
			// One MSHR for four lines: the loads behind the first wait
			// on missq without one and retry as fills free it, so the
			// gate must open on each release and on each failed miss.
			name: "loads retrying for the one MSHR",
			src: `
	la t0, spot
	ld t1, 0(t0)
	ld t2, 64(t0)
	ld t3, 128(t0)
	ld t4, 192(t0)
	add t1, t1, t2
	add t3, t3, t4
	add t1, t1, t3
	out t1
	halt
	.data
	.align 64
spot:	.quad 1
	.align 64
	.quad 2
	.align 64
	.quad 3
	.align 64
	.quad 4
	`,
			saw: func(t *testing.T, c *Core) bool {
				waiting := 0
				for _, s := range c.missq.live() {
					if !c.l1d.MissPending(c.at(s).addr) {
						waiting++
					}
				}
				return waiting >= 2
			},
			out:   []uint64{10},
			mshrs: 1,
		},
		{
			// Second pass: a divide chain holds the head while the rest
			// of the loop body fills the window, with a load parked on
			// the store behind the chain and consumers on wake lists.
			// The first ring fills while wrapped, so growWindow must
			// rename every slot: the oracle checks them the cycle after.
			name: "window ring grows while wrapped",
			src: `
	la t6, spot
	li s0, 2
again:
	addi s0, s0, -1
	li t3, 0
	li t4, 5
	div t0, t3, t4
	div t0, t0, t4
	div t0, t0, t4
	add t0, t0, t6
	st t4, 0(t0)
	ld t1, 0(t6)
	add t2, t1, t1
	add t2, t2, t4
	addi a2, zero, 1
	addi a3, zero, 2
	addi a4, zero, 3
	addi a5, zero, 4
	add a2, a2, a3
	add a4, a4, a5
	add a2, a2, a4
	add t2, t2, a2
	bnez s0, again
	out t2
	halt` + data,
			saw: func(t *testing.T, c *Core) bool {
				hit := prev.ring == firstRUU && len(c.win.buf) == c.Cfg.RUUSize && prev.head != 0 && prev.parked
				prev.ring, prev.head, prev.parked = len(c.win.buf), c.win.head, c.parked.n > 0
				return hit
			},
			out: []uint64{25},
		},
		{
			// The release sets issued outside issueStage; the HWBAR must
			// still reach the in-flight list to complete.
			name: "HWBAR release enters the in-flight list",
			src: `
	li t0, 3
	hwbar 0
	out t0
	halt`,
			saw: func(t *testing.T, c *Core) bool {
				hb := findOp(c, isa.HWBAR)
				return hb != 0 && inList(c.flight, hb)
			},
			out: []uint64{3},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := asm.MustAssemble(tc.src, textBase, 0x100000)
			cfg := mem.DefaultConfig(1)
			if tc.mshrs != 0 {
				cfg.MSHRs = tc.mshrs
			}
			r := newRigMem(t, p, cfg)
			c := r.cores[0]
			c.bnet = &fakeNet{}
			r.start(0, 0, 1, p.Entry)
			prev = cycleState{}
			saw := false
			for i := 0; i < 100_000 && c.Running(); i++ {
				r.tick(c)
				r.sys.Tick(r.now)
				r.now++
				saw = saw || tc.saw(t, c)
			}
			if !saw {
				t.Fatal("the program never reached the state the case is about")
			}
			if c.Running() {
				t.Fatalf("still running at pc %#x", c.ResumePC())
			}
			if tc.out == nil {
				if c.Fault == nil {
					t.Fatal("expected a fault")
				}
				return
			}
			if c.Fault != nil {
				t.Fatalf("fault: %v", c.Fault)
			}
			if fmt.Sprint(c.Console) != fmt.Sprint(tc.out) {
				t.Fatalf("console %v, want %v", c.Console, tc.out)
			}
		})
	}
}
