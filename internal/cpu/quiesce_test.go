package cpu

import (
	"fmt"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
)

// TestQuiesceBehindLLSCMiss drives the software barrier's stall shape on one
// core — an LL that misses, an SC that depends on it, and a window full of
// younger spin loads parked on the SC's unresolved address — twice: once
// ticking every cycle, once the way core.Machine.Step does (CheckQuiesce
// after every real tick, no tick while asleep, Skip of the cycles slept when
// a response wakes it). The skipping run must actually quiesce with loads
// parked and the LL's fill outstanding, and must end on the same cycle with
// the same per-cycle counters as its twin.
func TestQuiesceBehindLLSCMiss(t *testing.T) {
	// Two passes: the first warms the I-cache, the second LLs a cold line,
	// so the whole spin loop is in the window long before the fill returns.
	const src = `
	la t0, counter
	la t6, flag
	li s0, 2
pass:
	ll t1, 0(t0)
	addi t1, t1, 1
	sc t2, t1, 0(t0)
	li t4, 40
spin:
	ld t3, 0(t6)
	addi t4, t4, -1
	bnez t4, spin
	st t2, 8(t6)
	fence
	addi t0, t0, 64
	addi s0, s0, -1
	bnez s0, pass
	out t2
	out t3
	halt
	.data
	.align 64
counter:	.quad 0
	.align 64
	.quad 0
	.align 64
flag:	.quad 7
	`
	p := asm.MustAssemble(src, textBase, 0x100000)
	run := func(skip bool) (c *Core, end uint64, quiescedCycles int) {
		r := newRig(t, 1, p)
		c = r.cores[0]
		var asleep bool
		var owed uint64
		r.sys.SetWakeHook(0, func() {
			if asleep {
				c.Skip(owed)
				asleep = false
			}
		})
		r.start(0, 0, 1, p.Entry)
		for ; c.Running(); r.now++ {
			if r.now > 100_000 {
				t.Fatalf("still running at pc %#x", c.ResumePC())
			}
			if asleep {
				ll := findOp(c, isa.LL)
				if ll != 0 && inList(c.missq, ll) && c.parked.n > 0 {
					quiescedCycles++
				}
				owed++
			} else {
				r.tick(c)
				asleep, owed = skip && c.CheckQuiesce(r.now), 0
			}
			r.sys.Tick(r.now)
		}
		if c.Fault != nil {
			t.Fatalf("fault: %v", c.Fault)
		}
		return c, r.now, quiescedCycles
	}
	dense, denseEnd, _ := run(false)
	fast, fastEnd, quiesced := run(true)
	if quiesced == 0 {
		t.Fatal("the core never quiesced with loads parked behind the LL/SC miss")
	}
	state := func(c *Core, end uint64) string {
		return fmt.Sprintf("end=%d cycles=%d fence=%d fetchmiss=%d committed=%d scfail=%d loads=%d console=%v",
			end, c.Cycles, c.FenceStalls, c.FetchMissStalls, c.Committed, c.SCFailures, c.LoadsExecuted, c.Console)
	}
	if a, b := state(fast, fastEnd), state(dense, denseEnd); a != b {
		t.Fatalf("skipping run diverged from its tick-every-cycle twin:\nskip:  %s\ndense: %s", a, b)
	}
	if dense.FenceStalls == 0 || dense.FetchMissStalls == 0 {
		t.Fatalf("twin counters not exercised: %s", state(dense, denseEnd))
	}
	t.Logf("%d quiesced cycles with parked loads; %s", quiesced, state(fast, fastEnd))
}
