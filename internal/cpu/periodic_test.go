package cpu

import (
	"slices"
	"testing"

	"repro/internal/asm"
	"repro/internal/mem"
)

// TestSkipMatchesTicks puts a spinning core to sleep the way the machine
// does (CheckPeriodic after every tick) and brings it through n skipped
// cycles with Skip, while a twin ticks those cycles. For every n over
// three periods the two must hold the same relative state — encode's words,
// with in-flight completion cycles relative to now — and the same counters.
// The period-1 loop keeps multiplies in flight across the period's end, so
// a completion cycle left unshifted shows; the period-2 loop loads two lines
// per iteration through the one memory port.
func TestSkipMatchesTicks(t *testing.T) {
	for _, tc := range []struct {
		name, body string
		period     uint64
	}{
		{"period-1-mul", "ld t1, 0(s1)\n\tmul t3, t1, t1", 1},
		{"period-2", "ld t2, 64(s1)\n\tld t1, 0(s1)", 2},
	} {
		p := asm.MustAssemble(`
	la s1, flag
spin:
	`+tc.body+`
	beqz t1, spin
	halt
	.data
	.align 64
flag:	.quad 0
	.align 64
	.quad 0
`, textBase, 0x100000)
		for n := uint64(1); n <= 3*tc.period+1; n++ {
			a, b := newRig(t, 1, p), newRig(t, 1, p)
			a.start(0, 0, 1, p.Entry)
			b.start(0, 0, 1, p.Entry)
			ca, cb := a.cores[0], b.cores[0]
			step := func(r *testRig, c *Core) {
				if c != nil {
					r.tick(c)
				}
				r.sys.Tick(r.now)
				r.now++
			}
			for asleep := false; !asleep; {
				if a.now > 20_000 {
					t.Fatalf("%s: never slept periodically", tc.name)
				}
				a.tick(ca)
				asleep = !ca.CheckQuiesce(a.now) && ca.Repeats() && ca.CheckPeriodic(a.now)
				step(a, nil)
				step(b, cb)
			}
			if ca.per.p != tc.period {
				t.Fatalf("%s: proved period %d, want %d", tc.name, ca.per.p, tc.period)
			}
			for range n {
				step(a, nil)
				step(b, cb)
			}
			ca.Skip(n)
			wa, wb := ca.encode(nil, a.now-1), cb.encode(nil, b.now-1)
			counts := func(c *Core) (v [nMoved]uint64) {
				for i, p := range c.moved() {
					v[i] = *p
				}
				return v
			}
			if !slices.Equal(wa, wb) || counts(ca) != counts(cb) || ca.Cycles != cb.Cycles {
				t.Fatalf("%s: after skipping %d cycles the state differs from the ticked twin's:\ncounts %v cycles %d\ntwin   %v cycles %d",
					tc.name, n, counts(ca), ca.Cycles, counts(cb), cb.Cycles)
			}
		}
	}
}

// TestMovedSlots: Skip and CheckQuiesce index moved by name, so its order
// must match the names.
func TestMovedSlots(t *testing.T) {
	c := &Core{l1i: &mem.L1{}, l1d: &mem.L1{}}
	m := c.moved()
	if m[fetchStalls] != &c.FetchMissStalls || m[fenceStalls] != &c.FenceStalls || m[lookups] != &c.lookups {
		t.Fatal("moved's order does not match fetchStalls, fenceStalls and lookups")
	}
}

// TestProofVoidedByLineChange: a change to a line of the core's L1s made by
// anything but the core during a proof's period voids the proof, even when
// the core's own state repeats, because a repeat would read a different
// cache. The change here leaves the line as it was and still counts.
func TestProofVoidedByLineChange(t *testing.T) {
	p := asm.MustAssemble(`
	la s1, flag
spin:
	ld t2, 64(s1)
	ld t1, 0(s1)
	beqz t1, spin
	halt
	.data
	.align 64
flag:	.quad 0
	.align 64
	.quad 0
`, textBase, 0x100000)
	// run ticks a core as the machine does until its first periodic sleep,
	// changing the line at the end of cycle inject, and returns the cycle
	// after whose tick it fell asleep and the period.
	run := func(inject uint64) (end, period uint64) {
		r := newRig(t, 1, p)
		r.start(0, 0, 1, p.Entry)
		c := r.cores[0]
		for ; r.now < 20_000; r.now++ {
			r.tick(c)
			if !c.CheckQuiesce(r.now) && c.Repeats() && c.CheckPeriodic(r.now) {
				return r.now, c.per.p
			}
			if r.now == inject {
				c.l1d.InjectState(0x100000+64, mem.Shared)
			}
			r.sys.Tick(r.now)
		}
		t.Fatal("never slept periodically")
		return 0, 0
	}
	end, period := run(^uint64(0))
	if voided, _ := run(end - period); voided == end {
		t.Fatalf("slept after cycle %d on a proof whose period saw a line change", end)
	}
}
