package cpu

import (
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/mem"
)

const textBase = 0x10000

// testRig builds a 1..n-core system and loads a program.
type testRig struct {
	t     testing.TB
	sys   *mem.System
	cores []*Core
	now   uint64
}

func newRig(t testing.TB, nc int, p *asm.Program) *testRig {
	t.Helper()
	sys := mem.NewSystem(mem.DefaultConfig(nc))
	r := &testRig{t: t, sys: sys}
	for i := 0; i < nc; i++ {
		r.cores = append(r.cores, New(DefaultConfig(), i, sys, nil))
	}
	for _, seg := range p.Segments {
		sys.Mem.WriteBytes(seg.Addr, seg.Data)
	}
	return r
}

func (r *testRig) start(core int, tid, n int, entry uint64) {
	r.cores[core].Reset(entry, tid, n, 0x0800_0000+uint64(tid+1)*0x40000-64)
}

func (r *testRig) run(t *testing.T, limit uint64) {
	t.Helper()
	for i := uint64(0); i < limit; i++ {
		running := false
		for _, c := range r.cores {
			if c.Running() {
				running = true
			}
			r.tick(c)
		}
		r.sys.Tick(r.now)
		r.now++
		if !running {
			return
		}
	}
	for _, c := range r.cores {
		if c.Running() {
			t.Fatalf("core %d still running at limit (pc %#x)", c.ID, c.ResumePC())
		}
	}
}

func runProgram(t *testing.T, src string) *testRig {
	t.Helper()
	p := asm.MustAssemble(src, textBase, 0x100000)
	r := newRig(t, 1, p)
	r.start(0, 0, 1, p.Entry)
	r.run(t, 1_000_000)
	if r.cores[0].Fault != nil {
		t.Fatalf("fault: %v", r.cores[0].Fault)
	}
	return r
}

func TestBranchPredictorTrains(t *testing.T) {
	// A long, perfectly-biased loop should mispredict only a handful of
	// times once the bimodal counters train.
	r := runProgram(t, `
	li t0, 2000
loop:
	addi t0, t0, -1
	bnez t0, loop
	halt
	`)
	c := r.cores[0]
	if c.Mispredicts > 10 {
		t.Fatalf("%d mispredicts on a biased loop", c.Mispredicts)
	}
}

func TestAlternatingBranchMispredicts(t *testing.T) {
	// A branch alternating taken/not-taken defeats a bimodal predictor;
	// expect a substantial mispredict count.
	r := runProgram(t, `
	li t0, 400
	li t1, 0
loop:
	andi t2, t0, 1
	beqz t2, even
	addi t1, t1, 1
even:
	addi t0, t0, -1
	bnez t0, loop
	out t1
	halt
	`)
	c := r.cores[0]
	if c.Console[0] != 200 {
		t.Fatalf("wrong result %d", c.Console[0])
	}
	if c.Mispredicts < 50 {
		t.Fatalf("only %d mispredicts on an alternating branch", c.Mispredicts)
	}
}

func TestFenceDrainsStores(t *testing.T) {
	// After FENCE commits, the preceding store must be globally visible
	// (in this model: performed to memory).
	src := `
	la t0, spot
	li t1, 5
	st t1, 0(t0)
	fence
	halt
	.data
	.align 64
spot:	.quad 0
	`
	p := asm.MustAssemble(src, textBase, 0x100000)
	r := newRig(t, 1, p)
	r.start(0, 0, 1, p.Entry)
	r.run(t, 100000)
	if got := r.sys.Mem.ReadUint64(p.MustSymbol("spot")); got != 5 {
		t.Fatalf("store not drained before halt: %d", got)
	}
	if !r.cores[0].Drained() {
		t.Fatal("store buffer not drained")
	}
}

func TestStoreLoadForwarding(t *testing.T) {
	// A load immediately after a store to the same address must see the
	// stored value (via forwarding, well before the store drains).
	r := runProgram(t, `
	la t0, spot
	li t1, 77
	st t1, 0(t0)
	ld t2, 0(t0)
	out t2
	halt
	.data
	.align 64
spot:	.quad 1
	`)
	if got := r.cores[0].Console[0]; got != 77 {
		t.Fatalf("forwarded %d, want 77", got)
	}
}

func TestPartialOverlapStoreBlocksLoad(t *testing.T) {
	// A 2-byte store partially overlapping an 8-byte load cannot forward;
	// the load must wait and then read the merged memory image.
	r := runProgram(t, `
	la t0, spot
	li t1, 0xBEEF
	sh t1, 2(t0)
	fence
	ld t2, 0(t0)
	out t2
	halt
	.data
	.align 64
spot:	.quad 0x1111111111111111
	`)
	want := uint64(0x11111111BEEF1111)
	if got := r.cores[0].Console[0]; got != want {
		t.Fatalf("got %#x, want %#x", got, want)
	}
}

func TestMisalignedAccessFaults(t *testing.T) {
	p := asm.MustAssemble(`
	li t0, 0x100001
	ld t1, 0(t0)
	halt
	`, textBase, 0x100000)
	r := newRig(t, 1, p)
	r.start(0, 0, 1, p.Entry)
	r.run(t, 100000)
	if r.cores[0].Fault == nil || !strings.Contains(r.cores[0].Fault.Error(), "load") {
		t.Fatalf("fault = %v", r.cores[0].Fault)
	}
}

func TestNullAccessFaults(t *testing.T) {
	p := asm.MustAssemble(`
	st zero, 8(zero)
	halt
	`, textBase, 0x100000)
	r := newRig(t, 1, p)
	r.start(0, 0, 1, p.Entry)
	r.run(t, 100000)
	if r.cores[0].Fault == nil || !strings.Contains(r.cores[0].Fault.Error(), "null") {
		t.Fatalf("fault = %v", r.cores[0].Fault)
	}
}

func TestIllegalInstructionFaults(t *testing.T) {
	// Jump into zeroed memory: all-zero words decode to BAD.
	p := asm.MustAssemble(`
	li t0, 0x50000
	jalr x0, 0(t0)
	`, textBase, 0x100000)
	r := newRig(t, 1, p)
	r.start(0, 0, 1, p.Entry)
	r.run(t, 100000)
	if r.cores[0].Fault == nil || !strings.Contains(r.cores[0].Fault.Error(), "illegal") {
		t.Fatalf("fault = %v", r.cores[0].Fault)
	}
}

func TestSCFailsWithoutReservation(t *testing.T) {
	r := runProgram(t, `
	la t0, spot
	li t1, 9
	sc t2, t1, 0(t0)
	out t2
	halt
	.data
	.align 64
spot:	.quad 0
	`)
	if got := r.cores[0].Console[0]; got != 0 {
		t.Fatalf("SC without LL returned %d, want 0", got)
	}
}

func TestSCSucceedsAfterLL(t *testing.T) {
	r := runProgram(t, `
	la t0, spot
retry:
	ll t1, 0(t0)
	addi t1, t1, 1
	sc t2, t1, 0(t0)
	beqz t2, retry
	out t1
	halt
	.data
	.align 64
spot:	.quad 41
	`)
	if got := r.cores[0].Console[0]; got != 42 {
		t.Fatalf("LL/SC increment got %d", got)
	}
}

// TestDescheduleKeepsWrittenSC: an SC writes memory at issue, so a core
// holding a successful SC that has not committed is not drained. Squashed
// there, the thread would resume before the SC and increment twice.
func TestDescheduleKeepsWrittenSC(t *testing.T) {
	p := asm.MustAssemble(`
	la t0, spot
retry:
	ll t1, 0(t0)
	addi t1, t1, 1
	sc t2, t1, 0(t0)
	beqz t2, retry
	out t1
	halt
	.data
	.align 64
spot:	.quad 41
	`, textBase, 0x100000)
	r := newRig(t, 2, p)
	r.start(0, 0, 1, p.Entry)
	c := r.cores[0]
	written := false
	for !written || !c.Drained() {
		if r.now > 100_000 {
			t.Fatal("the SC never wrote and committed")
		}
		r.tick(c)
		r.sys.Tick(r.now)
		r.now++
		if sc := findOp(c, isa.SC); sc != nil && sc.issued && sc.result == 1 {
			if c.Drained() {
				t.Fatalf("cycle %d: drained with a written SC in flight", r.now)
			}
			written = true
		}
	}
	pc, regs, err := c.Deschedule()
	if err != nil {
		t.Fatal(err)
	}
	r.cores[1].Restore(pc, regs)
	r.run(t, 100_000)
	if got := r.sys.Mem.ReadUint64(p.MustSymbol("spot")); got != 42 || len(r.cores[1].Console) != 1 || r.cores[1].Console[0] != 42 {
		t.Fatalf("spot = %d, console %v after migrating: want one increment to 42", got, r.cores[1].Console)
	}
}

func TestIFlushRefetches(t *testing.T) {
	// IFLUSH must not corrupt execution; the program continues at the
	// next instruction.
	r := runProgram(t, `
	li t0, 7
	iflush
	addi t0, t0, 1
	out t0
	halt
	`)
	if got := r.cores[0].Console[0]; got != 8 {
		t.Fatalf("after iflush got %d", got)
	}
}

func TestDescheduleRestoreRoundTrip(t *testing.T) {
	src := `
	li s0, 0
loop:
	addi s0, s0, 1
	li t0, 100000
	blt s0, t0, loop
	out s0
	halt
	`
	p := asm.MustAssemble(src, textBase, 0x100000)
	r := newRig(t, 2, p)
	r.start(0, 0, 1, p.Entry)
	// Run a while, then migrate the thread to core 1.
	for i := 0; i < 5000; i++ {
		for _, c := range r.cores {
			r.tick(c)
		}
		r.sys.Tick(r.now)
		r.now++
	}
	for !r.cores[0].Drained() {
		r.tick(r.cores[0])
		r.sys.Tick(r.now)
		r.now++
	}
	pc, regs, err := r.cores[0].Deschedule()
	if err != nil {
		t.Fatal(err)
	}
	if r.cores[0].Running() {
		t.Fatal("descheduled core still running")
	}
	r.cores[1].Restore(pc, regs)
	r.run(t, 5_000_000)
	if len(r.cores[1].Console) != 1 || r.cores[1].Console[0] != 100000 {
		t.Fatalf("migrated thread produced %v", r.cores[1].Console)
	}
}

func TestOutOfOrderIndependentChains(t *testing.T) {
	// Two independent dependency chains should overlap: the combined
	// time must be well below the sum of serial latencies.
	r := runProgram(t, `
	li t0, 500
	li t1, 1
	li t2, 1
loop:
	mul t1, t1, t1
	mul t2, t2, t2
	addi t0, t0, -1
	bnez t0, loop
	halt
	`)
	c := r.cores[0]
	// Two dependent 3-cycle multiplies serialized through one unit would
	// be ~6 cycles/iteration minimum; pipelined overlap allows ~3-4.
	perIter := float64(c.Cycles) / 500
	if perIter > 8 {
		t.Fatalf("%.1f cycles/iter: multiplies not overlapping", perIter)
	}
}

func TestResumePCAndContext(t *testing.T) {
	p := asm.MustAssemble(`
	li t0, 1
	halt
	`, textBase, 0x100000)
	r := newRig(t, 1, p)
	r.start(0, 3, 4, p.Entry)
	if got := r.cores[0].ResumePC(); got != p.Entry {
		t.Fatalf("initial ResumePC %#x", got)
	}
	if r.cores[0].Reg(isa.RegA0) != 3 || r.cores[0].Reg(isa.RegA1) != 4 {
		t.Fatal("tid/nthreads registers not set")
	}
	_, regs := r.cores[0].Context()
	if regs[isa.RegA0] != 3 {
		t.Fatal("context regs wrong")
	}
}

func TestIndirectJumpViaTable(t *testing.T) {
	// Function-pointer dispatch exercises JALR + BTB target prediction.
	src := `
	la t0, table
	li s0, 0     # accumulated
	li s1, 3     # call each function this many times
loop:
	ld t1, 0(t0)
	jalr ra, 0(t1)
	ld t1, 8(t0)
	jalr ra, 0(t1)
	addi s1, s1, -1
	bnez s1, loop
	out s0
	halt
addone:
	addi s0, s0, 1
	ret
addten:
	addi s0, s0, 10
	ret
	.data
	.align 8
table:
	.quad 0, 0
	`
	r := runProgramPatched(t, src, func(p *asm.Program, sys *mem.System) {
		sys.Mem.WriteUint64(p.MustSymbol("table"), p.MustSymbol("addone"))
		sys.Mem.WriteUint64(p.MustSymbol("table")+8, p.MustSymbol("addten"))
	})
	if got := r.cores[0].Console[0]; got != 33 {
		t.Fatalf("dispatch sum = %d, want 33", got)
	}
}

// runProgram variant that patches function pointers into the data segment.
func runProgramPatched(t *testing.T, src string, patch func(p *asm.Program, sys *mem.System)) *testRig {
	t.Helper()
	p := asm.MustAssemble(src, textBase, 0x100000)
	r := newRig(t, 1, p)
	patch(p, r.sys)
	r.start(0, 0, 1, p.Entry)
	r.run(t, 1_000_000)
	if r.cores[0].Fault != nil {
		t.Fatalf("fault: %v", r.cores[0].Fault)
	}
	return r
}

func TestDividerBlocksButCompletes(t *testing.T) {
	r := runProgram(t, `
	li t0, 1000000
	li t1, 7
	div t2, t0, t1
	rem t3, t0, t1
	div t4, t2, t1
	out t2
	out t3
	out t4
	halt
	`)
	c := r.cores[0].Console
	if c[0] != 142857 || c[1] != 1 || c[2] != 20408 {
		t.Fatalf("div results %v", c)
	}
}

func TestStoreBufferBackpressure(t *testing.T) {
	// A burst of stores to distinct cold lines overflows the store buffer
	// and stalls commit, but everything drains correctly.
	src := `
	la t0, region
	li t1, 24
	li t2, 1
loop:
	st t2, 0(t0)
	addi t0, t0, 64
	addi t2, t2, 1
	addi t1, t1, -1
	bnez t1, loop
	fence
	halt
	.data
	.align 64
region:
	.space 2048
	`
	p := asm.MustAssemble(src, textBase, 0x100000)
	r := newRig(t, 1, p)
	r.start(0, 0, 1, p.Entry)
	r.run(t, 1_000_000)
	base := p.MustSymbol("region")
	for i := 0; i < 24; i++ {
		if got := r.sys.Mem.ReadUint64(base + uint64(i*64)); got != uint64(i+1) {
			t.Fatalf("region[%d] = %d, want %d", i, got, i+1)
		}
	}
}

func TestDescheduleRefusesUndrained(t *testing.T) {
	// A core with an undrained store buffer must refuse Deschedule.
	p := asm.MustAssemble(`
	la t0, spot
	li t1, 1
	st t1, 0(t0)
	st t1, 8(t0)
loop:	j loop
	.data
	.align 64
spot:	.quad 0
	`, textBase, 0x100000)
	r := newRig(t, 1, p)
	r.start(0, 0, 1, p.Entry)
	// Step just a few cycles: the stores are committed into the buffer
	// but their GetM fills are still outstanding.
	refused := false
	for i := 0; i < 2000; i++ {
		r.tick(r.cores[0])
		r.sys.Tick(r.now)
		r.now++
		if !r.cores[0].Drained() {
			if _, _, err := r.cores[0].Deschedule(); err != nil {
				refused = true
			}
			break
		}
	}
	if !refused {
		t.Skip("store buffer drained before it could be observed")
	}
}
