package cpu

import (
	"testing"

	"repro/internal/asm"
)

// TestTickSteadyStateNoAlloc: once a core has been Reset, Core.Tick
// allocates nothing, and neither does a context switch. The window is a
// ring, the side lists, store buffer and fetch buffer are fixed arrays with
// cursors, and a fault's error is built only at commit. The loop takes every
// list a tick edits through its paces: loads and stores through the store
// buffer, a multiply and a divide in flight, a branch that mispredicts every
// fourth pass and squashes, and a fence that waits for the buffer to drain.
// It runs with and without the translation cache. The switch (Deschedule,
// Restore, and ticks until the window refills) flushes a full window: the
// entries it held must be reused, not dropped for fresh ones.
func TestTickSteadyStateNoAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	p := asm.MustAssemble(`
	la s1, buf
loop:
	ld t1, 0(s1)
	addi t1, t1, 1
	st t1, 0(s1)
	mul t3, t1, t1
	andi t2, t1, 3
	bnez t2, skip
	div t4, t3, t1
	fence
skip:
	sw t3, 8(s1)
	j loop
	.data
	.align 64
buf:	.quad 0, 0
`, textBase, 0x100000)
	for _, translate := range []bool{false, true} {
		r := newRig(t, 1, p)
		if translate {
			attachTranslator(r)
		}
		c := r.cores[0]
		r.start(0, 0, 1, p.Entry)
		tick := func() {
			c.Tick(r.now)
			r.sys.Tick(r.now)
			r.now++
		}
		for range 20_000 {
			tick()
		}
		committed, mispredicts := c.Committed, c.Mispredicts
		allocs := testing.AllocsPerRun(5000, tick)
		if !c.Running() || c.Committed == committed || c.Mispredicts == mispredicts {
			t.Fatalf("translate=%v: the loop stopped (running=%v, fault=%v) or never squashed", translate, c.Running(), c.Fault)
		}
		if allocs != 0 {
			t.Fatalf("translate=%v: Core.Tick allocates %.3f times per cycle in steady state", translate, allocs)
		}
		allocs = testing.AllocsPerRun(50, func() {
			for end := r.now + 1000; (c.win.n < 8 || !c.Drained()) && r.now < end; {
				tick()
			}
			if c.win.n < 8 {
				t.Fatalf("translate=%v: no drained state with 8 entries in the window", translate)
			}
			pc, regs, err := c.Deschedule()
			if err != nil {
				t.Fatal(err)
			}
			c.Restore(pc, regs)
			for range 200 {
				tick()
			}
		})
		if allocs != 0 {
			t.Fatalf("translate=%v: a context switch allocates %.3f times", translate, allocs)
		}
	}
}
