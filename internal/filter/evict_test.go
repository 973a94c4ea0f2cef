package filter

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/mem"
)

func TestEvictBlockingReleasesParkedWithError(t *testing.T) {
	f := newTestFilter(3)
	f.onArrivalInval(0, 0)
	f.onFill(0, 0, fillTxn(f.ArrivalAddr(0), 0))
	f.onFill(1, 0, fillTxn(f.ArrivalAddr(0), 2)) // context-switched double park
	if err := f.EvictThread(0); err != nil {
		t.Fatal(err)
	}
	if f.State(0) != Evicted {
		t.Fatalf("state %s after evict", f.State(0))
	}
	// The rescinded arrival no longer counts toward the opening.
	if f.ArrivedCount() != 0 {
		t.Fatalf("arrived counter %d after evicting the only arriver", f.ArrivedCount())
	}
	// Both parked fills come back error-coded, never silently dropped.
	for i := 0; i < 2; i++ {
		txn, errFill, ok := f.popReleased(1)
		if !ok || !errFill {
			t.Fatalf("release %d: ok=%v err=%v", i, ok, errFill)
		}
		if txn.Addr != f.ArrivalAddr(0) {
			t.Fatalf("release %d wrong txn %v", i, txn)
		}
	}
	if _, _, ok := f.popReleased(1); ok {
		t.Fatal("extra release")
	}
	if f.Evictions != 1 || f.EvictErrors != 2 {
		t.Fatalf("Evictions=%d EvictErrors=%d", f.Evictions, f.EvictErrors)
	}
	// Idempotent: a second deallocation of the same entry is a no-op.
	if err := f.EvictThread(0); err != nil {
		t.Fatal(err)
	}
	if f.Evictions != 1 {
		t.Fatal("double evict counted twice")
	}
	if err := f.EvictThread(99); err == nil {
		t.Fatal("out-of-range evict must fail")
	}
}

func TestEvictedEntryMisuseMatrix(t *testing.T) {
	// Every access to a deallocated entry is answered with an error-coded
	// response — arrival inval, exit inval, demand fill, and speculative
	// fill alike. None may park, none may panic.
	f := newTestFilter(2)
	if err := f.EvictThread(0); err != nil {
		t.Fatal(err)
	}
	if fault := f.onArrivalInval(0, 0); !fault {
		t.Fatal("arrival inval on evicted entry must fault")
	}
	if !strings.Contains(f.LastError(), "evicted") {
		t.Fatalf("error %q not attributed to eviction", f.LastError())
	}
	if fault := f.onExitInval(0); !fault {
		t.Fatal("exit inval on evicted entry must fault")
	}
	park, fault := f.onFill(0, 0, fillTxn(f.ArrivalAddr(0), 0))
	if park || !fault {
		t.Fatalf("demand fill on evicted entry: park=%v fault=%v", park, fault)
	}
	if !strings.Contains(f.LastError(), "stale tag") {
		t.Fatalf("error %q not a stale-tag report", f.LastError())
	}
	park, fault = f.onFill(0, 0, mem.Txn{Kind: mem.GetI, Addr: f.ArrivalAddr(0), Core: 0})
	if park || !fault {
		t.Fatalf("speculative fill on evicted entry: park=%v fault=%v", park, fault)
	}
	if f.EvictErrors != 4 {
		t.Fatalf("EvictErrors=%d, want 4", f.EvictErrors)
	}
	// The untouched sibling entry still works.
	if fault := f.onArrivalInval(0, 1); fault {
		t.Fatalf("live sibling faulted: %s", f.LastError())
	}
}

func TestReprogramThread(t *testing.T) {
	f := newTestFilter(2)
	// Reprogramming a live entry is a protocol error.
	if err := f.ReprogramThread(0); err == nil {
		t.Fatal("reprogram of live entry must fail")
	}
	if f.Errors == 0 {
		t.Fatal("live-entry reprogram not counted as misuse")
	}
	f.EvictThread(0)
	if err := f.ReprogramThread(0); err != nil {
		t.Fatal(err)
	}
	if f.State(0) != Waiting {
		t.Fatalf("state %s after reprogram", f.State(0))
	}
	if f.Reprograms != 1 {
		t.Fatal("reprogram not counted")
	}
	// The reprogrammed entry participates in a fresh epoch.
	if fault := f.onArrivalInval(0, 0); fault {
		t.Fatalf("arrival after reprogram faulted: %s", f.LastError())
	}
	if fault := f.onArrivalInval(0, 1); fault {
		t.Fatal("second arrival faulted")
	}
	if f.Openings != 1 {
		t.Fatal("barrier did not open after reprogram")
	}
	if err := f.ReprogramThread(-1); err == nil {
		t.Fatal("out-of-range reprogram must fail")
	}
}

func TestBankCapacitySpill(t *testing.T) {
	b := NewBankFilters(8)
	b.Cap = 6 // entries, not slots: three 2-thread filters exceed it
	f1 := newTestFilter(4)
	f2 := New("u", aBase+0x1000_0000, eBase+0x1000_0000, stride, 2)
	f2.RegisterAll()
	f3 := New("v", aBase+0x2000_0000, eBase+0x2000_0000, stride, 2)
	f3.RegisterAll()
	if err := b.Add(f1); err != nil {
		t.Fatal(err)
	}
	if err := b.Add(f2); err != nil {
		t.Fatal(err)
	}
	if b.Entries() != 6 {
		t.Fatalf("entries %d, want 6", b.Entries())
	}
	err := b.Add(f3)
	if err == nil {
		t.Fatal("over-capacity allocation must fail")
	}
	if !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("error %v does not wrap ErrNoCapacity", err)
	}
	if b.Spills != 1 {
		t.Fatalf("Spills=%d, want 1", b.Spills)
	}
	// Freeing entries makes room again.
	b.Remove(f1)
	if b.Entries() != 2 {
		t.Fatalf("entries %d after remove", b.Entries())
	}
	if err := b.Add(f3); err != nil {
		t.Fatal("capacity not reclaimed after remove:", err)
	}
	// A pure slot denial is not a capacity spill.
	bs := NewBankFilters(1)
	bs.Cap = 100
	if err := bs.Add(newTestFilter(2)); err != nil {
		t.Fatal(err)
	}
	if err := bs.Add(f2); err == nil {
		t.Fatal("slot-exhausted add must fail")
	}
	if bs.Spills != 0 {
		t.Fatal("slot denial must not count as a capacity spill")
	}
	// Cap=0 stays unbounded.
	bu := NewBankFilters(100)
	for i := 0; i < 50; i++ {
		g := New("g", aBase+uint64(i)*0x10_0000, eBase+uint64(i)*0x10_0000, stride, 4)
		g.RegisterAll()
		if err := bu.Add(g); err != nil {
			t.Fatalf("unbounded add %d: %v", i, err)
		}
	}
}

func TestRetireAnswersStaleTagsWithErrors(t *testing.T) {
	b := NewBankFilters(4)
	f := newTestFilter(2)
	if err := b.Add(f); err != nil {
		t.Fatal(err)
	}
	// One thread mid-barrier with a parked fill when the table is torn down.
	b.OnInval(0, f.ArrivalAddr(0), 0)
	b.OnFill(0, fillTxn(f.ArrivalAddr(0), 0))
	b.Retire(f)
	if b.InUse() != 0 || len(b.Retired()) != 1 {
		t.Fatalf("inUse=%d retired=%d after retire", b.InUse(), len(b.Retired()))
	}
	// The parked fill was error-released by the teardown eviction.
	txn, errFill, ok := b.PopReleased(1)
	if !ok || !errFill || txn.Core != 0 {
		t.Fatalf("teardown release: ok=%v err=%v txn=%v", ok, errFill, txn)
	}
	// A stale in-flight fill after deallocation gets an error response.
	park, fault := b.OnFill(2, fillTxn(f.ArrivalAddr(1), 1))
	if park || !fault {
		t.Fatalf("stale fill: park=%v fault=%v", park, fault)
	}
	if !strings.Contains(b.LastError(), "stale tag") {
		t.Fatalf("error %q", b.LastError())
	}
	// So does a stale invalidation.
	if fault := b.OnInval(3, f.ArrivalAddr(0), 0); !fault {
		t.Fatal("stale inval must fault")
	}
	var evictErrs uint64
	for _, p := range b.Retired() {
		evictErrs += p.Table().EvictErrors
	}
	if evictErrs == 0 {
		t.Fatal("stale-tag errors not reachable through the retired list")
	}
	// Retired filters hold no entries against the capacity budget.
	if b.Entries() != 0 {
		t.Fatalf("retired filter still holds %d entries", b.Entries())
	}
}

func TestRetireLivePrecedenceAndBound(t *testing.T) {
	// A live filter claiming an address always wins over a retired one:
	// address reuse must never spuriously fault live traffic.
	b := NewBankFilters(4)
	old := newTestFilter(2)
	b.Add(old)
	b.Retire(old)
	reborn := newTestFilter(2) // same address range as old
	if err := b.Add(reborn); err != nil {
		t.Fatal(err)
	}
	if fault := b.OnInval(0, reborn.ArrivalAddr(0), 0); fault {
		t.Fatalf("live filter shadowed by retired twin: %s", b.LastError())
	}
	if reborn.State(0) != Blocking {
		t.Fatal("inval did not reach the live filter")
	}
	// The retired list is bounded: old corpses fall off.
	for i := 0; i < maxRetired+3; i++ {
		g := New("g", aBase+uint64(i+1)*0x100_0000, eBase+uint64(i+1)*0x100_0000, stride, 1)
		g.RegisterAll()
		if err := b.Add(g); err != nil {
			t.Fatal(err)
		}
		b.Retire(g)
	}
	if len(b.Retired()) != maxRetired {
		t.Fatalf("retired list %d, want bounded at %d", len(b.Retired()), maxRetired)
	}
}

func TestDropParkedByCore(t *testing.T) {
	f := newTestFilter(3)
	f.onArrivalInval(0, 0)
	f.onArrivalInval(0, 1)
	f.onFill(0, 0, fillTxn(f.ArrivalAddr(0), 4))
	f.onFill(0, 1, fillTxn(f.ArrivalAddr(1), 5))
	if n := f.DropParked(4); n != 1 {
		t.Fatalf("dropped %d fills for core 4, want 1", n)
	}
	if f.DroppedFills != 1 {
		t.Fatal("DroppedFills not counted")
	}
	// The drop is silent: no error release, and the arrival stays in force.
	if _, _, ok := f.popReleased(0); ok {
		t.Fatal("drop must not release anything")
	}
	if f.State(0) != Blocking || f.ArrivedCount() != 2 {
		t.Fatalf("state %s arrived %d after drop", f.State(0), f.ArrivedCount())
	}
	// The rescheduled thread re-parks and the barrier completes normally.
	f.onFill(1, 0, fillTxn(f.ArrivalAddr(0), 7))
	f.onArrivalInval(2, 2)
	if f.Openings != 1 {
		t.Fatal("barrier did not open")
	}
	released := 0
	for {
		_, errFill, ok := f.popReleased(2)
		if !ok {
			break
		}
		if errFill {
			t.Fatal("unexpected error release")
		}
		released++
	}
	if released != 2 {
		t.Fatalf("released %d, want 2 (core 5's original + core 7's re-park)", released)
	}
}

func TestExpiryQueueExactTimeouts(t *testing.T) {
	// The expiry queue must reproduce the old linear rescan exactly:
	// earliest park expires first, NextEvent names the precise cycle, and
	// fills removed by release, drop, or evict never time out.
	f := newTestFilter(4)
	f.Timeout = 100
	f.onArrivalInval(10, 0)
	f.onFill(10, 0, fillTxn(f.ArrivalAddr(0), 0))
	f.onArrivalInval(30, 1)
	f.onFill(30, 1, fillTxn(f.ArrivalAddr(1), 1))
	f.onArrivalInval(50, 2)
	f.onFill(50, 2, fillTxn(f.ArrivalAddr(2), 2))

	if ev, ok := f.nextEvent(60); !ok || ev != 110 {
		t.Fatalf("nextEvent=%d ok=%v, want 110", ev, ok)
	}
	if _, _, ok := f.popReleased(109); ok {
		t.Fatal("released before the earliest expiry")
	}
	txn, errFill, ok := f.popReleased(110)
	if !ok || !errFill || txn.Core != 0 {
		t.Fatalf("first expiry: ok=%v err=%v txn=%v", ok, errFill, txn)
	}
	// Dropping core 1's fill leaves a dead head; nextEvent must skip it
	// and report core 2's expiry at 150.
	f.DropParked(1)
	if ev, ok := f.nextEvent(111); !ok || ev != 150 {
		t.Fatalf("nextEvent=%d ok=%v after drop, want 150", ev, ok)
	}
	txn, errFill, ok = f.popReleased(150)
	if !ok || !errFill || txn.Core != 2 {
		t.Fatalf("second expiry: ok=%v err=%v txn=%v", ok, errFill, txn)
	}
	if _, ok := f.nextEvent(200); ok {
		t.Fatal("nextEvent with nothing parked")
	}
	if f.Timeouts != 2 {
		t.Fatalf("Timeouts=%d, want 2", f.Timeouts)
	}
}

func TestExpiryQueueClearedOnOpen(t *testing.T) {
	f := newTestFilter(2)
	f.Timeout = 100
	f.onArrivalInval(0, 0)
	f.onFill(0, 0, fillTxn(f.ArrivalAddr(0), 0))
	f.onArrivalInval(1, 1) // opens
	// The parked fill is released by the opening, not the timeout.
	txn, errFill, ok := f.popReleased(500)
	if !ok || errFill || txn.Core != 0 {
		t.Fatalf("open release: ok=%v err=%v txn=%v", ok, errFill, txn)
	}
	if f.Timeouts != 0 {
		t.Fatal("opening release misattributed to timeout")
	}
	if f.expiry.Len() != 0 {
		t.Fatalf("expiry queue holds %d dead entries after open", f.expiry.Len())
	}
}
