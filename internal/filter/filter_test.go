package filter

import (
	"strings"
	"testing"

	"repro/internal/mem"
)

const (
	stride = 256
	aBase  = 0x1000_0000
	eBase  = 0x2000_0000
)

func newTestFilter(n int) *Filter {
	f := New("t", aBase, eBase, stride, n)
	f.RegisterAll()
	return f
}

func fillTxn(addr uint64, core int) mem.Txn {
	return mem.Txn{Kind: mem.GetS, Addr: addr, Core: core, ID: uint64(core + 1)}
}

func TestAddressMatching(t *testing.T) {
	f := newTestFilter(4)
	for tid := 0; tid < 4; tid++ {
		if got, ok := f.MatchLine(f.ArrivalAddr(tid)); !ok || got != tid {
			t.Errorf("arrival match for %d: %d %v", tid, got, ok)
		}
		if got, ok := f.MatchExit(f.ExitAddr(tid)); !ok || got != tid {
			t.Errorf("exit match for %d: %d %v", tid, got, ok)
		}
	}
	// Off-stride, out-of-range and foreign addresses don't match.
	if _, ok := f.MatchLine(aBase + 64); ok {
		t.Error("off-stride address matched")
	}
	if _, ok := f.MatchLine(aBase + 4*stride); ok {
		t.Error("beyond-last-thread address matched")
	}
	if _, ok := f.MatchLine(aBase - stride); ok {
		t.Error("below-base address matched")
	}
	if _, ok := f.MatchLine(eBase); ok {
		t.Error("exit address matched as arrival")
	}
}

// runBarrierEpisode drives one full barrier episode through the FSM.
func runBarrierEpisode(t *testing.T, f *Filter, now *uint64) {
	t.Helper()
	n := f.NumThreads
	// All but the last thread arrive and have their fills parked.
	for tid := 0; tid < n-1; tid++ {
		if fault := f.onArrivalInval(*now, tid); fault {
			t.Fatalf("arrival inval %d faulted: %s", tid, f.LastError())
		}
		if f.State(tid) != Blocking {
			t.Fatalf("thread %d state %v after arrival", tid, f.State(tid))
		}
		park, fault := f.onFill(*now, tid, fillTxn(f.ArrivalAddr(tid), tid))
		if !park || fault {
			t.Fatalf("fill for blocked thread %d: park=%v fault=%v", tid, park, fault)
		}
		*now++
	}
	if f.ArrivedCount() != n-1 {
		t.Fatalf("arrived counter %d, want %d", f.ArrivedCount(), n-1)
	}
	// Last thread arrives: barrier opens, everyone Servicing.
	if fault := f.onArrivalInval(*now, n-1); fault {
		t.Fatalf("last arrival faulted: %s", f.LastError())
	}
	if f.ArrivedCount() != 0 {
		t.Fatal("arrived counter not reset on open")
	}
	for tid := 0; tid < n; tid++ {
		if f.State(tid) != Servicing {
			t.Fatalf("thread %d not Servicing after open", tid)
		}
	}
	// Parked fills drain through the release queue.
	released := 0
	for {
		_, errFill, ok := f.popReleased(*now)
		if !ok {
			break
		}
		if errFill {
			t.Fatal("unexpected error release")
		}
		released++
	}
	if released != n-1 {
		t.Fatalf("released %d fills, want %d", released, n-1)
	}
	// The last thread's own fill is serviced directly in Servicing.
	park, fault := f.onFill(*now, n-1, fillTxn(f.ArrivalAddr(n-1), n-1))
	if park || fault {
		t.Fatalf("Servicing fill: park=%v fault=%v", park, fault)
	}
	// Exit invalidations return everyone to Waiting.
	for tid := 0; tid < n; tid++ {
		if fault := f.onExitInval(tid); fault {
			t.Fatalf("exit inval %d faulted: %s", tid, f.LastError())
		}
		if f.State(tid) != Waiting {
			t.Fatalf("thread %d not Waiting after exit", tid)
		}
	}
}

func TestFSMFullEpisode(t *testing.T) {
	f := newTestFilter(4)
	now := uint64(0)
	// Two consecutive episodes exercise re-arming.
	runBarrierEpisode(t, f, &now)
	runBarrierEpisode(t, f, &now)
	if f.Openings != 2 {
		t.Fatalf("openings = %d, want 2", f.Openings)
	}
}

func TestFSMErrorFillWhileWaiting(t *testing.T) {
	f := newTestFilter(2)
	_, fault := f.onFill(0, 0, fillTxn(f.ArrivalAddr(0), 0))
	if !fault {
		t.Fatal("demand fill in Waiting must fault (load before invalidate)")
	}
	if !strings.Contains(f.LastError(), "Waiting") {
		t.Fatalf("error message %q", f.LastError())
	}
}

func TestFSMSpeculativeFetchParkedNotFaulted(t *testing.T) {
	f := newTestFilter(2)
	// Wrong-path instruction fetch of an arrival line in Waiting state.
	park, fault := f.onFill(0, 0, mem.Txn{Kind: mem.GetI, Addr: f.ArrivalAddr(0), Core: 0})
	if fault || !park {
		t.Fatalf("speculative GetI: park=%v fault=%v", park, fault)
	}
	// Explicit prefetches likewise.
	park, fault = f.onFill(0, 1, mem.Txn{Kind: mem.GetS, Addr: f.ArrivalAddr(1), Core: 1, Prefetch: true})
	if fault || !park {
		t.Fatalf("prefetch: park=%v fault=%v", park, fault)
	}
}

func TestFSMErrorExitInvalWrongState(t *testing.T) {
	f := newTestFilter(2)
	if fault := f.onExitInval(0); !fault {
		t.Fatal("exit inval in Waiting must fault")
	}
	f2 := newTestFilter(2)
	f2.onArrivalInval(0, 0)
	if fault := f2.onExitInval(0); !fault {
		t.Fatal("exit inval in Blocking must fault")
	}
}

func TestFSMErrorArrivalInServicing(t *testing.T) {
	f := newTestFilter(1)
	f.onArrivalInval(0, 0) // opens immediately (1 thread)
	if f.State(0) != Servicing {
		t.Fatal("single-thread barrier did not open")
	}
	if fault := f.onArrivalInval(0, 0); !fault {
		t.Fatal("arrival inval in Servicing must fault")
	}
}

func TestFSMRepeatArrivalInBlocking(t *testing.T) {
	f := newTestFilter(2)
	f.onArrivalInval(0, 0)
	// Figure 3 semantics: repeated arrival invalidation is tolerated.
	if fault := f.onArrivalInval(1, 0); fault {
		t.Fatal("repeat arrival inval must not fault in lenient mode")
	}
	if f.ArrivedCount() != 1 {
		t.Fatal("repeat arrival must not double count")
	}
	// §3.3.4 strict checking turns it into an error.
	f.Strict = true
	if fault := f.onArrivalInval(2, 0); !fault {
		t.Fatal("strict mode must fault repeated arrival")
	}
}

func TestFSMUnregisteredThreadFaults(t *testing.T) {
	f := New("t", aBase, eBase, stride, 2)
	if err := f.RegisterThread(0); err != nil {
		t.Fatal(err)
	}
	if fault := f.onArrivalInval(0, 1); !fault {
		t.Fatal("unregistered thread arrival must fault")
	}
	if err := f.RegisterThread(5); err == nil {
		t.Fatal("out-of-range registration must fail")
	}
}

func TestEarlyArrivalBeforeAllRegisteredStillBlocks(t *testing.T) {
	// §3.3.1: threads entering before all have registered still stall,
	// since num-threads was fixed at creation.
	f := New("t", aBase, eBase, stride, 3)
	f.RegisterThread(0)
	f.RegisterThread(1)
	if fault := f.onArrivalInval(0, 0); fault {
		t.Fatal("registered thread must be able to arrive")
	}
	park, fault := f.onFill(0, 0, fillTxn(f.ArrivalAddr(0), 0))
	if !park || fault {
		t.Fatal("early arriver must block")
	}
	if f.State(0) != Blocking {
		t.Fatal("early arriver not blocking")
	}
}

func TestTimeoutReleasesWithError(t *testing.T) {
	f := newTestFilter(2)
	f.Timeout = 100
	f.onArrivalInval(0, 0)
	f.onFill(0, 0, fillTxn(f.ArrivalAddr(0), 0))
	if _, _, ok := f.popReleased(50); ok {
		t.Fatal("released before timeout")
	}
	txn, errFill, ok := f.popReleased(150)
	if !ok || !errFill {
		t.Fatalf("timeout release: ok=%v err=%v", ok, errFill)
	}
	if txn.Core != 0 {
		t.Fatalf("released wrong txn %v", txn)
	}
	if f.Timeouts != 1 {
		t.Fatal("timeout not counted")
	}
}

func TestContextSwitchDoubleParkedFills(t *testing.T) {
	// §3.3.3: a descheduled thread's parked fill stays; the rescheduled
	// thread parks a second one. Both are released at opening.
	f := newTestFilter(2)
	f.onArrivalInval(0, 0)
	f.onFill(0, 0, mem.Txn{Kind: mem.GetS, Addr: f.ArrivalAddr(0), Core: 0, ID: 1})
	f.onFill(5, 0, mem.Txn{Kind: mem.GetS, Addr: f.ArrivalAddr(0), Core: 2, ID: 9})
	if f.PendingFor(0) != 2 {
		t.Fatalf("pending %d, want 2", f.PendingFor(0))
	}
	f.onArrivalInval(10, 1)
	count := 0
	for {
		if _, _, ok := f.popReleased(10); !ok {
			break
		}
		count++
	}
	if count != 2 {
		t.Fatalf("released %d fills, want 2", count)
	}
}

func TestInitServicing(t *testing.T) {
	f := newTestFilter(2)
	f.InitServicing()
	for tid := 0; tid < 2; tid++ {
		if fault := f.onExitInval(tid); fault {
			t.Fatal("exit inval must be legal after InitServicing")
		}
		if f.State(tid) != Waiting {
			t.Fatal("exit did not move to Waiting")
		}
	}
}

func TestBankFiltersSlots(t *testing.T) {
	b := NewBankFilters(2)
	f1 := newTestFilter(2)
	f2 := New("u", aBase+0x1000_0000, eBase+0x1000_0000, stride, 2)
	f2.RegisterAll()
	f3 := New("v", aBase+0x2000_0000, eBase+0x2000_0000, stride, 2)
	if err := b.Add(f1); err != nil {
		t.Fatal(err)
	}
	if err := b.Add(f2); err != nil {
		t.Fatal(err)
	}
	if err := b.Add(f3); err == nil {
		t.Fatal("third filter must not fit in 2 slots")
	}
	if b.InUse() != 2 {
		t.Fatalf("in use %d", b.InUse())
	}
	b.Remove(f1)
	if b.InUse() != 1 {
		t.Fatal("remove failed")
	}
	if err := b.Add(f3); err != nil {
		t.Fatal("slot not reusable after remove")
	}
}

func TestBankFiltersPingPongRouting(t *testing.T) {
	// Ping-pong: one invalidation is the arrival of filter A and the
	// exit of filter B.
	fa := New("a", aBase, eBase, stride, 2)
	fb := New("b", eBase, aBase, stride, 2)
	fa.RegisterAll()
	fb.RegisterAll()
	fb.InitServicing()
	b := NewBankFilters(2)
	b.Add(fa)
	b.Add(fb)

	// Invalidate thread 0's line in region A: arrival for fa, exit for fb.
	if fault := b.OnInval(0, aBase, 0); fault {
		t.Fatalf("ping-pong inval faulted: %s", b.LastError())
	}
	if fa.State(0) != Blocking {
		t.Fatal("fa did not record arrival")
	}
	if fb.State(0) != Waiting {
		t.Fatal("fb did not record exit")
	}
	// A fill for region A is decided by fa (its arrival region).
	park, fault := b.OnFill(0, mem.Txn{Kind: mem.GetS, Addr: aBase, Core: 0})
	if !park || fault {
		t.Fatalf("fill routing: park=%v fault=%v", park, fault)
	}
}

func TestStateStrings(t *testing.T) {
	if Waiting.String() != "Waiting" || Blocking.String() != "Blocking" ||
		Servicing.String() != "Servicing" || Evicted.String() != "Evicted" {
		t.Fatal("state strings")
	}
}
