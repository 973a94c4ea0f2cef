package core_test

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/barrier"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/mem"
)

// Periodic sleep against tick-by-tick twins, at every phase of the period.
//
// Core 0 spins on a flag: in a period-1 loop (ld/bne), in one with a
// multiply in flight across the period's end (its completion cycle must be
// shifted), and in a period-2 loop that also loads a line X each iteration;
// a loop that also stores each iteration must never sleep. Core 1 counts
// down D and stores the flag, invalidating core 0's copy: the change hook
// wakes the sleeper. Consecutive values of D from after core 0's first
// sleep on land the release at every phase of the period. Each run also stops once at a
// RunUntil boundary mid-spin, which settles the sleeper. After the release
// core 0 loads W1 and then W2, both in X's set of its 2-way L1D: the
// tick-by-tick run evicts X, and a skip that left X's last use newer than
// W1's would evict W1 instead.
const (
	flagAddr = core.DataBase
	xAddr    = core.DataBase + 0x1000
	uAddr    = core.DataBase + 0x2000 // loaded before the spin, never after
	sAddr    = core.DataBase + 0x3000 // stored by the storing spin
	w1Addr   = xAddr + 32<<10         // one L1 set stride (64 KB, 2 ways)
	w2Addr   = xAddr + 64<<10
)

func spinProgram(t *testing.T, spin string, invalU bool, d uint64) *asm.Program {
	t.Helper()
	// The writer's first store invalidates U, a line core 0 holds but no
	// longer reads: the core wakes, proves its period again and sleeps.
	inval := ""
	if invalU {
		inval = "\tst t1, 0(s5)\n\tli t0, 60\nwait2:\n\taddi t0, t0, -1\n\tbnez t0, wait2\n"
	}
	src := fmt.Sprintf(`
	li s1, %d
	li s2, %d
	li s3, %d
	li s4, %d
	li s5, %d
	li s6, %d
	li t1, 1
	bnez a0, writer
	ld t0, 0(s3)
	ld t0, 0(s5)
	ld t0, 0(s2)
spin:
%s	beqz t1, spin
	ld t0, 0(s3)
	ld t0, 0(s4)
	out t1
	halt
writer:
	li t0, %d
wait:
	addi t0, t0, -1
	bnez t0, wait
%s	st t1, 0(s1)
	halt
`, flagAddr, xAddr, w1Addr, w2Addr, uAddr, sAddr, spin, d, inval)
	p, err := asm.Assemble(src, core.TextBase, core.DataBase)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// runSpin runs p on two cores and a NoFastPath twin to cycle stop, three
// cycles on (a wrongly restored sleeper drifts before it heals) and to
// completion, comparing the two at each point.
func runSpin(t *testing.T, p *asm.Program, stop uint64) (fast, slow *core.Machine) {
	t.Helper()
	var ms [2]*core.Machine
	for i := range ms {
		cfg := core.DefaultConfig(2)
		cfg.NoFastPath = i == 1
		ms[i] = core.NewMachine(cfg)
		ms[i].Load(p)
		ms[i].StartSPMD(p.Entry, 2)
	}
	for _, until := range []uint64{stop, stop + 3, 1_000_000} {
		for _, m := range ms {
			if err := m.RunUntil(until); err != nil {
				t.Fatal(err)
			}
		}
		if err := sameState(ms[0], ms[1]); err != nil {
			t.Fatalf("cycle %d: %v", ms[0].Now(), err)
		}
	}
	if ms[0].Running() || ms[0].Now() != ms[1].Now() {
		t.Fatalf("ended at cycle %d (running %v), NoFastPath twin at %d", ms[0].Now(), ms[0].Running(), ms[1].Now())
	}
	return ms[0], ms[1]
}

func TestPeriodicWakeEveryPhase(t *testing.T) {
	const flag = "\tld t1, 0(s1)\n"
	for _, tc := range []struct {
		name   string
		spin   string
		period uint64 // 0: must never sleep
		invalU bool
	}{
		{"period-1", flag, 1, false},
		{"period-1-mul", flag + "\tmul t3, t1, t1\n", 1, false},
		{"period-2", "\tld t2, 0(s2)\n" + flag, 2, false},
		{"period-1-unrelated-inval", flag, 1, true},
		{"stores-each-period", "\tst zero, 0(s6)\n" + flag, 0, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The first cycle by which core 0, alone, has gone to periodic
			// sleep: the countdown starts after it, and the mid-spin stop
			// falls between the two.
			p := spinProgram(t, tc.spin, tc.invalU, 1)
			probe := core.NewMachine(core.DefaultConfig(2))
			probe.Load(p)
			probe.StartThread(0, p.Entry, 0, 2)
			first := uint64(0)
			for c := uint64(1); first == 0; c++ {
				switch {
				case c > 5000 && tc.period == 0:
					first = 1000
				case c > 5000:
					t.Fatal("core 0 never slept periodically")
				}
				if err := probe.RunUntil(c); err != nil {
					t.Fatal(err)
				}
				if spins, _, _ := probe.SleepCounts(); spins > 0 {
					first = c
				}
			}
			for d := first; d < first+6*max(tc.period, 1)+2; d++ {
				p := spinProgram(t, tc.spin, tc.invalU, d)
				fast, _ := runSpin(t, p, first+d/2)
				lines := fast.Sys.L1D[0].Snapshot()
				has := func(a uint64) bool {
					return slices.ContainsFunc(lines, func(l mem.CacheLine) bool { return l.Addr == a })
				}
				if has(xAddr) || !has(w1Addr) || !has(w2Addr) {
					t.Fatalf("D=%d: core 0's L1D holds X %v, W1 %v, W2 %v; want X evicted", d, has(xAddr), has(w1Addr), has(w2Addr))
				}
				// Asleep before the stop and again before the release, and
				// once more between U's invalidation and the release.
				sleeps, _, spun := fast.SleepCounts()
				if tc.period == 0 && sleeps != 0 || tc.period > 0 && (spun != 1 || sleeps < 2 || tc.invalU && sleeps < 3) {
					t.Fatalf("D=%d: %d periodic sleeps, %d spinners settled at the stop", d, sleeps, spun)
				}
				if c := fast.Cores[0].Console; len(c) != 1 || c[0] != 1 {
					t.Fatalf("D=%d: core 0 printed %v, want [1]", d, c)
				}
			}
		})
	}
}

// TestSpinDeadlockJumpsToLimit: thread 3 of a 4-thread sw-central program
// halts before the barrier, so the other three spin on its flag forever.
// They sleep periodically and nothing is pending in the memory system, so
// the run jumps straight to the cycle limit, which it reports exactly as
// the tick-by-tick twin does, and a limit of 10^9 cycles costs no time.
func TestSpinDeadlockJumpsToLimit(t *testing.T) {
	boot := func(noFastPath bool) *core.Machine {
		cfg := core.DefaultConfig(4)
		cfg.NoFastPath = noFastPath
		gen, err := barrier.New(barrier.KindSWCentral, 4, barrier.NewAllocator(cfg.Mem))
		if err != nil {
			t.Fatal(err)
		}
		prog, err := barrier.BuildProgram(gen, func(b *asm.Builder) {
			skip := b.NewLabel("skip")
			b.LI(isa.RegT0, 3)
			b.BEQ(isa.RegA0, isa.RegT0, skip)
			gen.EmitBarrier(b)
			b.Label(skip)
		})
		if err != nil {
			t.Fatal(err)
		}
		m := core.NewMachine(cfg)
		if err := barrier.Launch(m, gen, prog, 4); err != nil {
			t.Fatal(err)
		}
		return m
	}
	fast, slow := boot(false), boot(true)
	fc, ferr := fast.Run(300_000)
	sc, serr := slow.Run(300_000)
	if ferr == nil || serr == nil || ferr.Error() != serr.Error() || fc != sc {
		t.Fatalf("fast path: %d cycles, %v\nNoFastPath twin: %d cycles, %v", fc, ferr, sc, serr)
	}
	if err := sameState(fast, slow); err != nil {
		t.Fatal(err)
	}
	if sleeps, _, _ := fast.SleepCounts(); sleeps < 3 {
		t.Fatalf("%d periodic sleeps; the three spinners must sleep", sleeps)
	}
	start := time.Now()
	if _, err := boot(false).Run(1_000_000_000); err == nil {
		t.Fatal("a deadlocked barrier completed")
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("10^9-cycle limit took %v; the sleeping spinners should let the run jump there", el)
	}
}

// TestPeriodicWakeOnTextWrite: one core overwrites the branch of the other's
// spin loop with a NOP. No coherence message reaches the spinner (its L1I
// keeps the line), but its next fetch reads the new word, so the write
// itself must wake the sleeper first: through the write's cycle when the
// spinner ticks before the writer, through the cycle before when after.
// The spinner then falls out of the loop and halts at the cycle its
// tick-by-tick twin does.
func TestPeriodicWakeOnTextWrite(t *testing.T) {
	for i := range 12 {
		d, writer := uint64(700+i/2), []string{"bnez", "beqz"}[i%2]
		spinner := i % 2
		p, err := asm.Assemble(fmt.Sprintf(`
	la s1, flag
	la s7, patch
	%s a0, writer
spin:
	ld t1, 0(s1)
patch:
	beqz t1, spin
	li t1, 7
	out t1
	halt
writer:
	li t0, %d
wait:
	addi t0, t0, -1
	bnez t0, wait
	la t2, nop
	ld t2, 0(t2)
	st t2, 0(s7)
	halt
	.data
	.align 64
flag:	.quad 0
nop:	.quad %d
`, writer, d, isa.Encode(isa.Inst{Op: isa.NOP})), core.TextBase, core.DataBase)
		if err != nil {
			t.Fatal(err)
		}
		fast, _ := runSpin(t, p, d/2)
		if sleeps, _, _ := fast.SleepCounts(); sleeps == 0 {
			t.Fatalf("D=%d: core %d never slept periodically", d, spinner)
		}
		if c := fast.Cores[spinner].Console; len(c) != 1 || c[0] != 7 {
			t.Fatalf("D=%d: core %d printed %v, want [7]", d, spinner, c)
		}
	}
}
