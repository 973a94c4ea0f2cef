package core

import (
	"strings"
	"testing"

	"repro/internal/asm"
)

// run assembles src, loads it, starts nthreads threads and runs to
// completion, returning the machine.
func run(t *testing.T, src string, cores, nthreads int, maxCycles uint64) *Machine {
	t.Helper()
	p, err := asm.Assemble(src, TextBase, DataBase)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	m := NewMachine(DefaultConfig(cores))
	m.Load(p)
	m.StartSPMD(p.Entry, nthreads)
	if _, err := m.Run(maxCycles); err != nil {
		t.Fatalf("run: %v", err)
	}
	return m
}

func TestMachineArithmetic(t *testing.T) {
	src := `
	li t0, 6
	li t1, 7
	mul t2, t0, t1
	out t2
	addi t3, t2, -2
	out t3
	halt
	`
	m := run(t, src, 1, 1, 100000)
	c := m.Cores[0].Console
	if len(c) != 2 || c[0] != 42 || c[1] != 40 {
		t.Fatalf("console = %v, want [42 40]", c)
	}
}

func TestMachineLoop(t *testing.T) {
	// Sum 1..100 = 5050.
	src := `
	li t0, 0     # sum
	li t1, 1     # i
	li t2, 100
loop:
	add t0, t0, t1
	addi t1, t1, 1
	ble t1, t2, loop
	out t0
	halt
	`
	m := run(t, src, 1, 1, 100000)
	if c := m.Cores[0].Console; len(c) != 1 || c[0] != 5050 {
		t.Fatalf("console = %v, want [5050]", c)
	}
}

func TestMachineMemoryRoundTrip(t *testing.T) {
	src := `
	la t0, buf
	li t1, 12345
	st t1, 0(t0)
	ld t2, 0(t0)
	out t2
	lw t3, 0(t0)
	out t3
	halt
	.data
buf:
	.quad 0
	`
	m := run(t, src, 1, 1, 100000)
	if c := m.Cores[0].Console; len(c) != 2 || c[0] != 12345 || c[1] != 12345 {
		t.Fatalf("console = %v, want [12345 12345]", c)
	}
}

func TestMachineFloat(t *testing.T) {
	src := `
	la t0, vals
	fld f0, 0(t0)
	fld f1, 8(t0)
	fmul f2, f0, f1
	ftoi t1, f2
	out t1
	halt
	.data
vals:
	.double 2.5, 4.0
	`
	m := run(t, src, 1, 1, 100000)
	if c := m.Cores[0].Console; len(c) != 1 || c[0] != 10 {
		t.Fatalf("console = %v, want [10]", c)
	}
}

func TestMachineCallStack(t *testing.T) {
	src := `
	li a2, 5
	call double
	out a2
	halt
double:
	addi sp, sp, -8
	st ra, 0(sp)
	add a2, a2, a2
	ld ra, 0(sp)
	addi sp, sp, 8
	ret
	`
	m := run(t, src, 1, 1, 100000)
	if c := m.Cores[0].Console; len(c) != 1 || c[0] != 10 {
		t.Fatalf("console = %v, want [10]", c)
	}
}

func TestMachineSPMDThreadIDs(t *testing.T) {
	// Each thread stores its tid*10 into a private slot; thread 0's
	// result is checked via memory.
	src := `
	la t0, arr
	slli t1, a0, 3
	add t0, t0, t1
	li t2, 10
	mul t2, t2, a0
	st t2, 0(t0)
	halt
	.data
arr:
	.space 512
	`
	m := run(t, src, 4, 4, 1000000)
	p := asm.MustAssemble(src, TextBase, DataBase)
	base := p.MustSymbol("arr")
	for tid := 0; tid < 4; tid++ {
		got := m.Sys.Mem.ReadUint64(base + uint64(tid*8))
		if got != uint64(tid*10) {
			t.Errorf("arr[%d] = %d, want %d", tid, got, tid*10)
		}
	}
}

func TestMachineLLSCIncrement(t *testing.T) {
	// 4 threads each atomically increment a shared counter 100 times.
	src := `
	la t0, counter
	li t1, 100
loop:
retry:
	ll t2, 0(t0)
	addi t2, t2, 1
	sc t3, t2, 0(t0)
	beqz t3, retry
	addi t1, t1, -1
	bnez t1, loop
	halt
	.data
	.align 64
counter:
	.quad 0
	`
	m := run(t, src, 4, 4, 5000000)
	p := asm.MustAssemble(src, TextBase, DataBase)
	got := m.Sys.Mem.ReadUint64(p.MustSymbol("counter"))
	if got != 400 {
		t.Fatalf("counter = %d, want 400", got)
	}
}

func TestMachineFenceAndCacheOps(t *testing.T) {
	// DCBI + reload round-trips data (write-back on invalidate).
	src := `
	la t0, buf
	li t1, 777
	st t1, 0(t0)
	fence
	dcbi 0(t0)
	ld t2, 0(t0)
	out t2
	halt
	.data
	.align 64
buf:
	.quad 0
	`
	m := run(t, src, 1, 1, 100000)
	if c := m.Cores[0].Console; len(c) != 1 || c[0] != 777 {
		t.Fatalf("console = %v, want [777]", c)
	}
}

func TestMachineBranchHeavy(t *testing.T) {
	// Collatz-ish iteration count from 27 (hard-to-predict branches).
	src := `
	li t0, 27
	li t1, 0
loop:
	li t2, 1
	beq t0, t2, done
	andi t3, t0, 1
	bnez t3, odd
	srai t0, t0, 1
	j next
odd:
	li t4, 3
	mul t0, t0, t4
	addi t0, t0, 1
next:
	addi t1, t1, 1
	j loop
done:
	out t1
	halt
	`
	m := run(t, src, 1, 1, 1000000)
	if c := m.Cores[0].Console; len(c) != 1 || c[0] != 111 {
		t.Fatalf("console = %v, want [111] (collatz steps from 27)", c)
	}
}

func TestMachineHWBarrier(t *testing.T) {
	// 4 threads: thread 0 writes, all barrier, all read.
	src := `
	la t0, flagv
	bnez a0, wait
	li t1, 99
	st t1, 0(t0)
wait:
	hwbar 0
	ld t2, 0(t0)
	out t2
	halt
	.data
	.align 64
flagv:
	.quad 0
	`
	p := asm.MustAssemble(src, TextBase, DataBase)
	m := NewMachine(DefaultConfig(4))
	m.Load(p)
	m.Net.Register(0, 4, uint64(m.Cfg.CPU.HWBarrierWireLat))
	m.StartSPMD(p.Entry, 4)
	if _, err := m.Run(1000000); err != nil {
		t.Fatalf("run: %v", err)
	}
	for i := 0; i < 4; i++ {
		if c := m.Cores[i].Console; len(c) != 1 || c[0] != 99 {
			t.Fatalf("core %d console = %v, want [99]", i, c)
		}
	}
}

func TestStatsReport(t *testing.T) {
	src := `
	la t0, buf
	li t1, 3
	st t1, 0(t0)
	ld t2, 0(t0)
	out t2
	halt
	.data
	.align 64
buf:	.quad 0
	`
	m := run(t, src, 2, 1, 100000)
	s := m.StatsReport()
	if s.Get("core.instructions_committed") == 0 {
		t.Fatal("no instructions counted")
	}
	if s.Get("l1i.misses") == 0 {
		t.Fatal("no instruction fetch misses counted on a cold cache")
	}
	if s.Get("machine.wall_cycles") == 0 {
		t.Fatal("wall cycles missing")
	}
	if m.IPC() <= 0 {
		t.Fatal("IPC not positive")
	}
	if str := m.String(); str == "" {
		t.Fatal("empty machine description")
	}
	// The report must render without panicking and contain known keys.
	if out := s.String(); !strings.Contains(out, "bus.request_grants") {
		t.Fatalf("report missing keys:\n%s", out)
	}
}
