package osmodel

import (
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/barrier"
	"repro/internal/core"
	"repro/internal/filter"
	"repro/internal/mem"
)

func TestRegisterGrantsFilters(t *testing.T) {
	m := core.NewMachine(core.DefaultConfig(4))
	mgr := NewManager(m)
	h, err := mgr.Register(barrier.KindFilterD, 4)
	if err != nil {
		t.Fatal(err)
	}
	if h.Granted != barrier.KindFilterD {
		t.Fatalf("granted %v, want filter-d", h.Granted)
	}
	if h.Bank < 0 {
		t.Fatalf("no bank assigned")
	}
	free := mgr.FreeSlots()
	if free[h.Bank] != m.Cfg.FilterSlotsPerBank-1 {
		t.Fatalf("bank %d free slots = %d, want %d", h.Bank, free[h.Bank], m.Cfg.FilterSlotsPerBank-1)
	}
}

func TestRegisterFallsBackWhenSlotsExhausted(t *testing.T) {
	cfg := core.DefaultConfig(4)
	cfg.FilterSlotsPerBank = 1
	m := core.NewMachine(cfg)
	mgr := NewManager(m)

	// 4 banks x 1 slot: four entry/exit filters fit...
	for i := 0; i < 4; i++ {
		h, err := mgr.Register(barrier.KindFilterD, 4)
		if err != nil {
			t.Fatal(err)
		}
		if h.Granted != barrier.KindFilterD {
			t.Fatalf("barrier %d: granted %v, want filter-d", i, h.Granted)
		}
	}
	// ...the fifth falls back to software.
	h, err := mgr.Register(barrier.KindFilterD, 4)
	if err != nil {
		t.Fatal(err)
	}
	if h.Granted != barrier.KindSWCentral {
		t.Fatalf("granted %v, want sw-central fallback", h.Granted)
	}
	// Ping-pong needs two slots: with 1 per bank it always falls back.
	m2 := core.NewMachine(cfg)
	mgr2 := NewManager(m2)
	h2, err := mgr2.Register(barrier.KindFilterDPP, 4)
	if err != nil {
		t.Fatal(err)
	}
	if h2.Granted != barrier.KindSWCentral {
		t.Fatalf("ping-pong granted %v, want sw-central fallback", h2.Granted)
	}
}

func TestRegistrationAndAddresses(t *testing.T) {
	m := core.NewMachine(core.DefaultConfig(4))
	mgr := NewManager(m)
	h, err := mgr.Register(barrier.KindFilterD, 4)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := barrier.BuildProgram(h.Gen, func(b *asm.Builder) {})
	if err != nil {
		t.Fatal(err)
	}
	m.Load(prog)
	if err := h.Gen.Install(m, prog); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := h.Addresses(2); ok {
		t.Fatal("addresses available before registration")
	}
	for tid := 0; tid < 4; tid++ {
		if err := h.RegisterThread(tid); err != nil {
			t.Fatal(err)
		}
	}
	if !h.Complete() {
		t.Fatal("handle not complete after all registrations")
	}
	stride := mgr.Allocator().Stride()
	a0, e0, ok := h.Addresses(0)
	if !ok {
		t.Fatal("no addresses for thread 0")
	}
	a2, e2, _ := h.Addresses(2)
	if a2 != a0+2*stride || e2 != e0+2*stride {
		t.Fatalf("thread addressing not stride-linear: a0=%#x a2=%#x stride=%#x", a0, a2, stride)
	}
	// Same-bank rule (§3.3.2).
	cfg := m.Cfg.Mem
	if cfg.BankOf(a0) != cfg.BankOf(a2) || cfg.BankOf(a0) != cfg.BankOf(e0) {
		t.Fatal("barrier lines do not map to one bank")
	}
}

func TestRegisterSpillsWhenEntriesExhausted(t *testing.T) {
	// Slots are plentiful, but the per-bank entry capacity only fits one
	// 8-thread barrier per bank: the fifth registration (4 banks) must
	// fall back to software and be counted as an overflow spill.
	cfg := core.DefaultConfig(8)
	cfg.Mem.FilterCap = 8
	m := core.NewMachine(cfg)
	mgr := NewManager(m)
	for i := 0; i < m.Cfg.Mem.L2Banks; i++ {
		h, err := mgr.Register(barrier.KindFilterD, 8)
		if err != nil {
			t.Fatal(err)
		}
		if h.Granted != barrier.KindFilterD {
			t.Fatalf("barrier %d: granted %v, want filter-d", i, h.Granted)
		}
	}
	for b, free := range mgr.FreeEntries() {
		if free != 0 {
			t.Fatalf("bank %d has %d free entries, want 0", b, free)
		}
	}
	h, err := mgr.Register(barrier.KindFilterD, 8)
	if err != nil {
		t.Fatal(err)
	}
	if h.Granted != barrier.KindSWCentral {
		t.Fatalf("granted %v, want sw-central entry-capacity fallback", h.Granted)
	}
	if mgr.OverflowSpills() != 1 {
		t.Fatalf("OverflowSpills=%d, want 1", mgr.OverflowSpills())
	}
	// A small barrier still fits nowhere (8-entry banks are full), but
	// closing one frees its entries for reuse.
	first := func() *Handle {
		for _, hh := range mgr.handles {
			if hh.Granted == barrier.KindFilterD {
				return hh
			}
		}
		return nil
	}
	victim := first()
	if victim == nil {
		t.Fatal("no hardware handle to close")
	}
	mgr.Close(victim)
	h2, err := mgr.Register(barrier.KindFilterD, 8)
	if err != nil {
		t.Fatal(err)
	}
	if h2.Granted != barrier.KindFilterD {
		t.Fatalf("granted %v after Close freed entries, want filter-d", h2.Granted)
	}
	// Unbounded capacity never spills.
	cfg2 := core.DefaultConfig(8)
	cfg2.Mem.FilterCap = 0
	mgr2 := NewManager(core.NewMachine(cfg2))
	for b, free := range mgr2.FreeEntries() {
		if free != -1 {
			t.Fatalf("bank %d entries %d, want -1 (unbounded)", b, free)
		}
	}
}

func TestCloseRetiresFilters(t *testing.T) {
	m := core.NewMachine(core.DefaultConfig(4))
	mgr := NewManager(m)
	h, err := mgr.Register(barrier.KindFilterD, 4)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := barrier.BuildProgram(h.Gen, func(b *asm.Builder) {})
	if err != nil {
		t.Fatal(err)
	}
	m.Load(prog)
	if err := h.Gen.Install(m, prog); err != nil {
		t.Fatal(err)
	}
	f := h.Filters()[0]
	bank := h.Bank
	slotsBefore := mgr.FreeSlots()[bank]
	mgr.Close(h)
	if mgr.FreeSlots()[bank] != slotsBefore+1 {
		t.Fatal("Close did not refund the slot")
	}
	if m.Hooks[bank].InUse() != 0 {
		t.Fatal("Close left the filter live")
	}
	if len(m.Hooks[bank].Retired()) != 1 {
		t.Fatal("Close did not retire the filter")
	}
	// A stale fill against the closed barrier's tag is answered with an
	// error-coded response, not silently ignored.
	park, fault := m.Hooks[bank].OnFill(0, mem.Txn{Kind: mem.GetS, Addr: f.ArrivalAddr(0), Core: 0})
	if park || !fault {
		t.Fatalf("stale fill after Close: park=%v fault=%v", park, fault)
	}
	if f.EvictErrors == 0 {
		t.Fatal("stale-tag error not counted")
	}
	// Closing twice is harmless.
	mgr.Close(h)
}

func TestEvictAndReprogramThroughManager(t *testing.T) {
	m := core.NewMachine(core.DefaultConfig(4))
	mgr := NewManager(m)
	h, err := mgr.Register(barrier.KindFilterD, 4)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := barrier.BuildProgram(h.Gen, func(b *asm.Builder) {})
	if err != nil {
		t.Fatal(err)
	}
	m.Load(prog)
	if err := h.Gen.Install(m, prog); err != nil {
		t.Fatal(err)
	}
	if err := mgr.EvictThread(h, 2); err != nil {
		t.Fatal(err)
	}
	if h.Filters()[0].State(2) != filter.Evicted {
		t.Fatal("manager eviction did not reach the filter")
	}
	if err := mgr.ReprogramThread(h, 2); err != nil {
		t.Fatal(err)
	}
	if h.Filters()[0].State(2) != filter.Waiting {
		t.Fatal("manager reprogram did not restart the entry")
	}
	// Reprogramming a live entry surfaces the protocol error.
	if err := mgr.ReprogramThread(h, 2); err == nil {
		t.Fatal("reprogram of a live entry must fail")
	}
}

func TestSwapOutAndIn(t *testing.T) {
	m := core.NewMachine(core.DefaultConfig(4))
	mgr := NewManager(m)
	h, err := mgr.Register(barrier.KindFilterD, 4)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := barrier.BuildProgram(h.Gen, func(b *asm.Builder) {})
	if err != nil {
		t.Fatal(err)
	}
	m.Load(prog)
	if err := h.Gen.Install(m, prog); err != nil {
		t.Fatal(err)
	}
	inUse := m.Hooks[h.Bank].InUse()
	mgr.SwapOut(h)
	if got := m.Hooks[h.Bank].InUse(); got != inUse-1 {
		t.Fatalf("after swap-out bank has %d filters, want %d", got, inUse-1)
	}
	if err := mgr.SwapIn(h); err != nil {
		t.Fatal(err)
	}
	if got := m.Hooks[h.Bank].InUse(); got != inUse {
		t.Fatalf("after swap-in bank has %d filters, want %d", got, inUse)
	}
}

// TestContextSwitchBlockedThread exercises §3.3.3: a thread blocked at a
// barrier-filter barrier is descheduled (squashing its blocked fill),
// rescheduled on a *different* core, blocks again there, and the barrier
// completes once the last thread arrives. The fill serviced toward the old
// core is dropped harmlessly.
func TestContextSwitchBlockedThread(t *testing.T) {
	const nthreads = 2
	cfg := core.DefaultConfig(3) // 2 threads, 1 spare core to migrate to
	m := core.NewMachine(cfg)
	mgr := NewManager(m)
	h, err := mgr.Register(barrier.KindFilterD, nthreads)
	if err != nil {
		t.Fatal(err)
	}

	// Thread 0 waits on a flag before entering the barrier, guaranteeing
	// thread 1 blocks at the filter first. The flag address doubles as
	// the "done" marker at +64.
	prog, err := barrier.BuildProgram(h.Gen, func(b *asm.Builder) {
		b.LA(4, "flag")
		wait := b.NewLabel("wait")
		go1 := b.NewLabel("go1")
		b.BNEZ(10, go1) // a0 != 0 -> thread 1 goes straight to the barrier
		b.Label(wait)
		b.LD(5, 4, 0)
		b.BEQZ(5, wait)
		b.Label(go1)
		h.Gen.EmitBarrier(b)
		// After the barrier both threads bump their done slot.
		b.SLLI(6, 10, 3)
		b.ADD(6, 4, 6)
		b.LI(5, 1)
		b.ST(5, 6, 64)
		b.AlignData(64)
		b.DataLabel("flag")
		b.Space(192)
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Load(prog)
	if err := h.Gen.Install(m, prog); err != nil {
		t.Fatal(err)
	}
	for tid := 0; tid < nthreads; tid++ {
		if err := h.RegisterThread(tid); err != nil {
			t.Fatal(err)
		}
	}

	sched := NewScheduler(m)
	if err := sched.StartThread(0, 0, prog.Entry, nthreads); err != nil {
		t.Fatal(err)
	}
	if err := sched.StartThread(1, 1, prog.Entry, nthreads); err != nil {
		t.Fatal(err)
	}

	// Run until thread 1 is blocked at the filter (its fill is parked).
	f := h.Filters()[0]
	for i := 0; i < 200000 && f.PendingFor(1) == 0; i++ {
		m.Step()
	}
	if f.PendingFor(1) == 0 {
		t.Fatal("thread 1 never blocked at the filter")
	}
	if f.State(1) != filter.Blocking {
		t.Fatalf("thread 1 filter state %v, want Blocking", f.State(1))
	}

	// Deschedule the blocked thread and reschedule it on core 2.
	for i := 0; i < 10000 && !sched.Drained(1); i++ {
		m.Step()
	}
	if err := sched.Migrate(1, 2); err != nil {
		t.Fatal(err)
	}

	// It must block again on the new core (the barrier is still closed).
	start := f.PendingFor(1)
	for i := 0; i < 200000 && f.PendingFor(1) <= start; i++ {
		m.Step()
	}
	if f.PendingFor(1) <= start {
		t.Fatal("rescheduled thread did not re-block at the filter")
	}

	// Release thread 0; the barrier opens and both threads finish.
	flag := prog.MustSymbol("flag")
	m.Sys.Mem.WriteUint64(flag, 1)
	// Nudge coherence: invalidate any cached copy so the spin sees it.
	// (Direct memory pokes bypass the coherence protocol; the spin loop
	// re-reads memory on each cached hit in this model, so this is
	// sufficient.)
	if _, err := m.Run(5_000_000); err != nil {
		t.Fatalf("run to completion: %v", err)
	}
	for tid := 0; tid < nthreads; tid++ {
		if got := m.Sys.Mem.ReadUint64(flag + 64 + uint64(tid*8)); got != 1 {
			t.Fatalf("thread %d did not pass the barrier (done=%d)", tid, got)
		}
	}
	if f.Openings != 1 {
		t.Fatalf("filter openings = %d, want 1", f.Openings)
	}
}

func TestSchedulerErrors(t *testing.T) {
	m := core.NewMachine(core.DefaultConfig(2))
	sched := NewScheduler(m)
	if err := sched.StartThread(0, 0, core.TextBase, 1); err != nil {
		t.Fatal(err)
	}
	if err := sched.StartThread(1, 0, core.TextBase, 1); err == nil || !strings.Contains(err.Error(), "busy") {
		t.Fatalf("expected busy error, got %v", err)
	}
	if err := sched.Deschedule(9); err == nil {
		t.Fatal("expected error for unknown thread")
	}
	if err := sched.Schedule(0, 1); err == nil {
		t.Fatal("expected error scheduling a running thread")
	}
}
