package sanitize_test

import (
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/barrier"
	"repro/internal/core"
	"repro/internal/filter"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/sanitize"
)

// buildMachine launches the microbenchmark on a filter barrier and returns
// the machine plus a sanitizer constructed over its live parts (so the tests
// can drive checks by hand and corrupt state between them).
func buildMachine(t *testing.T, cores int) (*core.Machine, *sanitize.Sanitizer) {
	t.Helper()
	cfg := core.DefaultConfig(cores)
	alloc := barrier.NewAllocator(cfg.Mem)
	gen, err := barrier.New(barrier.KindFilterD, cores, alloc)
	if err != nil {
		t.Fatal(err)
	}
	mb := &kernels.Microbench{K: 8, M: 4}
	prog, err := mb.BuildPar(gen, cores)
	if err != nil {
		t.Fatal(err)
	}
	m := core.NewMachine(cfg)
	if err := barrier.Launch(m, gen, prog, cores); err != nil {
		t.Fatal(err)
	}
	physOf := make([]int, len(m.Cores))
	for i := range physOf {
		physOf[i] = m.PhysicalOf(i)
	}
	return m, sanitize.New(nil, m.Sys, m.Cores, physOf, m.Hooks)
}

// buildLockMachine launches the lock-protected reduction so the bank sync
// tables hold a hardware lock alongside the filters, and returns the machine
// plus a sanitizer and the installed lock.
func buildLockMachine(t *testing.T, cores int) (*core.Machine, *sanitize.Sanitizer, *filter.Lock) {
	t.Helper()
	cfg := core.DefaultConfig(cores)
	alloc := barrier.NewAllocator(cfg.Mem)
	gen, err := barrier.New(barrier.KindFilterD, cores, alloc)
	if err != nil {
		t.Fatal(err)
	}
	k := kernels.NewLockReduce(64, 4)
	prog, err := k.BuildPar(gen, cores)
	if err != nil {
		t.Fatal(err)
	}
	m := core.NewMachine(cfg)
	if err := barrier.Launch(m, gen, prog, cores); err != nil {
		t.Fatal(err)
	}
	var l *filter.Lock
	for _, h := range m.Hooks {
		for _, p := range h.Hosted() {
			if x, ok := p.(*filter.Lock); ok && l == nil {
				l = x
			}
		}
	}
	if l == nil {
		t.Fatal("no hardware lock installed by the lockreduce launch")
	}
	physOf := make([]int, len(m.Cores))
	for i := range physOf {
		physOf[i] = m.PhysicalOf(i)
	}
	return m, sanitize.New(nil, m.Sys, m.Cores, physOf, m.Hooks), l
}

// findShared scans the L1Ds for a line held Shared anywhere and returns the
// core and line address.
func findShared(m *core.Machine) (core int, addr uint64, ok bool) {
	for c := 0; c < m.Cfg.Cores; c++ {
		for _, ln := range m.Sys.L1D[c].Snapshot() {
			if ln.State == mem.Shared {
				return c, ln.Addr, true
			}
		}
	}
	return 0, 0, false
}

func TestCleanMachineHasNoViolations(t *testing.T) {
	m, s := buildMachine(t, 4)
	for _, at := range []uint64{5_000, 20_000, 50_000} {
		if err := m.RunUntil(at); err != nil {
			t.Fatal(err)
		}
		s.Check(m.Now())
	}
	if s.Tripped() {
		t.Fatalf("clean machine tripped the sanitizer: %v", s.Violations()[0].Error())
	}
	if s.FullChecks != 3 {
		t.Fatalf("FullChecks=%d, want 3", s.FullChecks)
	}
	if s.Err() != nil {
		t.Fatalf("Err()=%v on a clean machine", s.Err())
	}
}

func TestStateFlipTripsMSIChecker(t *testing.T) {
	m, s := buildMachine(t, 4)
	if err := m.RunUntil(20_000); err != nil {
		t.Fatal(err)
	}
	c, addr, ok := findShared(m)
	if !ok {
		t.Fatal("no Shared L1D line to corrupt after 20k cycles")
	}
	// The soft error of the faults package: a tag/state array bit flips
	// S->M. Data is unaffected (the caches are timing-only), so only the
	// sanitizer can see this.
	m.Sys.L1D[c].InjectState(addr, mem.Modified)
	s.Check(m.Now())
	if !s.Tripped() {
		t.Fatal("S->M state flip not detected")
	}
	v := s.Violations()[0]
	if v.Checker != "msi" || !strings.HasPrefix(v.Invariant, "msi.") {
		t.Fatalf("violation %q from checker %q, want an msi.* invariant", v.Invariant, v.Checker)
	}
	if v.Addr != addr || v.Core != c {
		t.Fatalf("violation names addr=%#x core=%d, want %#x/%d", v.Addr, v.Core, addr, c)
	}
	if v.Bank != m.Cfg.Mem.BankOf(addr) {
		t.Fatalf("violation names bank %d, want %d", v.Bank, m.Cfg.Mem.BankOf(addr))
	}
}

func TestViolationsDeduplicate(t *testing.T) {
	m, s := buildMachine(t, 4)
	if err := m.RunUntil(20_000); err != nil {
		t.Fatal(err)
	}
	c, addr, ok := findShared(m)
	if !ok {
		t.Fatal("no Shared L1D line to corrupt")
	}
	m.Sys.L1D[c].InjectState(addr, mem.Modified)
	s.Check(m.Now())
	n := len(s.Violations())
	if n == 0 {
		t.Fatal("corruption not detected")
	}
	// A persistent breach must be reported once, not once per pass.
	s.Check(m.Now() + 1)
	s.Check(m.Now() + 2)
	if len(s.Violations()) != n {
		t.Fatalf("re-checking a persistent breach grew the report %d -> %d", n, len(s.Violations()))
	}
}

func TestFilterCounterMismatchTripsFilterChecker(t *testing.T) {
	m, s := buildMachine(t, 4)
	if err := m.RunUntil(20_000); err != nil {
		t.Fatal(err)
	}
	// Find an installed filter and corrupt one registered thread entry:
	// a thread forced into Blocking without the arrived-counter moving is
	// exactly the desync a flipped SRAM bit in the filter table causes.
	var f *filter.Filter
	for _, h := range m.Hooks {
		for _, p := range h.Hosted() {
			if x, ok := p.(*filter.Filter); ok && f == nil {
				f = x
			}
		}
	}
	if f == nil {
		t.Fatal("no filter installed")
	}
	tid := -1
	for i := 0; i < f.NumThreads; i++ {
		if f.Registered(i) && f.State(i) != filter.Blocking {
			tid = i
			break
		}
	}
	if tid < 0 {
		t.Skip("every registered thread is Blocking at the probe cycle")
	}
	f.InjectState(tid, filter.EntryState(filter.Blocking))
	s.Check(m.Now())
	found := false
	for _, v := range s.Violations() {
		if v.Invariant == "filter.arrived-count-mismatch" {
			found = true
			if v.Checker != "filter" || v.Slot < 0 || v.Bank < 0 {
				t.Fatalf("mismatch violation poorly attributed: %+v", v)
			}
		}
	}
	if !found {
		t.Fatalf("filter-table desync not detected; got %v", s.Violations())
	}
}

func TestCleanLockMachineHasNoViolations(t *testing.T) {
	m, s, _ := buildLockMachine(t, 4)
	for _, at := range []uint64{5_000, 20_000, 60_000} {
		if err := m.RunUntil(at); err != nil {
			t.Fatal(err)
		}
		s.Check(m.Now())
	}
	if s.Tripped() {
		t.Fatalf("clean lock machine tripped the sanitizer: %v", s.Violations()[0].Error())
	}
}

// hasInvariant reports whether the sanitizer recorded the named invariant.
func hasInvariant(s *sanitize.Sanitizer, inv string) bool {
	for _, v := range s.Violations() {
		if v.Invariant == inv {
			return true
		}
	}
	return false
}

func TestLockDoubleHolderTripsLockChecker(t *testing.T) {
	m, s, l := buildLockMachine(t, 4)
	if err := m.RunUntil(10_000); err != nil {
		t.Fatal(err)
	}
	// A flipped state bit promotes two threads to Holding at once: the
	// single-holder invariant is the lock table's whole reason to exist.
	l.InjectState(0, filter.EntryState(filter.LockHolding))
	l.InjectState(1, filter.EntryState(filter.LockHolding))
	l.InjectHolder(0)
	s.Check(m.Now())
	if !hasInvariant(s, "lock.multiple-holders") {
		t.Fatalf("double holder not detected; got %v", s.Violations())
	}
	for _, v := range s.Violations() {
		if v.Invariant == "lock.multiple-holders" && (v.Checker != "lock" || v.Bank < 0) {
			t.Fatalf("double-holder violation poorly attributed: %+v", v)
		}
	}
}

func TestLockPhantomHolderTripsLockChecker(t *testing.T) {
	m, s, l := buildLockMachine(t, 4)
	if err := m.RunUntil(10_000); err != nil {
		t.Fatal(err)
	}
	// Corrupt only the holder register: it must agree with the per-thread
	// states. Point it at a thread that is not Holding.
	victim := -1
	for i := 0; i < l.NumThreads; i++ {
		if l.State(i) != filter.LockHolding {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Fatal("every thread Holding — impossible")
	}
	if h := l.Holder(); h >= 0 {
		l.InjectState(h, filter.EntryState(filter.LockIdle))
	}
	l.InjectHolder(victim)
	s.Check(m.Now())
	if !hasInvariant(s, "lock.phantom-holder") {
		t.Fatalf("phantom holder not detected; got %v", s.Violations())
	}
}

func TestLockPendingNotQueuedTripsLockChecker(t *testing.T) {
	m, s, l := buildLockMachine(t, 4)
	if err := m.RunUntil(10_000); err != nil {
		t.Fatal(err)
	}
	// Force a thread Pending without the acquire invalidation that would
	// have enqueued it: no grant can ever reach it.
	victim := -1
	for i := 0; i < l.NumThreads; i++ {
		if l.State(i) == filter.LockIdle {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Skip("no Idle thread at the probe cycle")
	}
	l.InjectState(victim, filter.EntryState(filter.LockPending))
	s.Check(m.Now())
	if !hasInvariant(s, "lock.pending-not-queued") {
		t.Fatalf("orphaned Pending thread not detected; got %v", s.Violations())
	}
	if l.Holder() < 0 && !hasInvariant(s, "lock.free-with-waiters") {
		t.Fatalf("free lock with a Pending waiter not flagged; got %v", s.Violations())
	}
}

func TestViolationErrorFormatting(t *testing.T) {
	v := sanitize.Violation{
		Cycle: 42, Checker: "msi", Invariant: "msi.double-modified",
		Addr: 0x4000, Core: 3, Bank: 1, Slot: -1, Thread: -1,
		Detail: "two owners",
	}
	got := v.Error()
	for _, want := range []string{"cycle 42", "msi.double-modified", "two owners", "addr=0x4000", "core=3", "bank=1"} {
		if !strings.Contains(got, want) {
			t.Fatalf("Error() = %q, missing %q", got, want)
		}
	}
	for _, not := range []string{"slot=", "thread="} {
		if strings.Contains(got, not) {
			t.Fatalf("Error() = %q renders the n/a field %q", got, not)
		}
	}
}

func TestMaxViolationsBound(t *testing.T) {
	m, _ := buildMachine(t, 4)
	if err := m.RunUntil(20_000); err != nil {
		t.Fatal(err)
	}
	physOf := make([]int, len(m.Cores))
	for i := range physOf {
		physOf[i] = m.PhysicalOf(i)
	}
	s := sanitize.New(&sanitize.Config{MaxViolations: 2}, m.Sys, m.Cores, physOf, m.Hooks)
	// Corrupt every Shared line in sight; the report must stay bounded.
	for c := 0; c < m.Cfg.Cores; c++ {
		for _, ln := range m.Sys.L1D[c].Snapshot() {
			if ln.State == mem.Shared {
				m.Sys.L1D[c].InjectState(ln.Addr, mem.Modified)
			}
		}
	}
	s.Check(m.Now())
	s.Check(m.Now() + 1)
	if got := len(s.Violations()); got > 2 {
		t.Fatalf("recorded %d violations, bound is 2", got)
	}
}

// TestWatchdogTreatsLockWaitAsLegitimate is the lock-side twin of the
// stalled-barrier report: two threads acquire one hardware lock and the
// winner halts without releasing. The loser's acquire load stays parked at
// the lock table for good — a legitimate wait, exactly like a fill parked at
// a barrier filter — so the miss-age check must exempt it (no
// liveness.lost-fill past TxnBudget) and the stall report must class the
// machine as blocked, not lost, naming the lock and its holder.
func TestWatchdogTreatsLockWaitAsLegitimate(t *testing.T) {
	cfg := core.DefaultConfig(2)
	cfg.Sanitize = &sanitize.Config{Every: 256, StallBudget: 20_000, TxnBudget: 2_000, KeepGoing: true}
	gen, err := barrier.New(barrier.KindSWCentral, 2, barrier.NewAllocator(cfg.Mem))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := barrier.BuildProgram(gen, func(b *asm.Builder) {
		const line = isa.RegS0
		barrier.EmitLockAddr(b, line, barrier.DeclareLock(b, "mu", 0, 2))
		barrier.EmitLockAcquire(b, line)
		// Falls through to HALT with the lock still held.
	})
	if err != nil {
		t.Fatal(err)
	}
	m := core.NewMachine(cfg)
	if err := barrier.Launch(m, gen, prog, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(60_000); err == nil {
		t.Fatal("a thread parked behind a never-released lock ran to completion")
	}
	var stall *sanitize.Violation
	for i, v := range m.Violations() {
		switch v.Invariant {
		case "liveness.lost-fill", "liveness.global-stall":
			t.Errorf("legitimate lock wait reported as %s: %s", v.Invariant, v.Detail)
		case "liveness.barrier-stall":
			stall = &m.Violations()[i]
		}
	}
	if stall == nil {
		t.Fatalf("no liveness.barrier-stall report; violations: %v", m.Violations())
	}
	for _, want := range []string{`blocked on lock "mu"`, "legitimate wait", `lock "mu"`, "held by thread"} {
		if !strings.Contains(stall.Detail, want) {
			t.Errorf("stall report missing %q:\n%s", want, stall.Detail)
		}
	}
}
