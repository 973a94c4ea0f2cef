package filter

import (
	"strings"
	"testing"

	"repro/internal/mem"
)

const lockStride = 256

func newTestLock(n int) *Lock {
	l := NewLock("tl", 0x3000_0000, lockStride, n)
	l.RegisterAll()
	return l
}

// acquire drives thread t's acquire protocol far enough to observe the
// outcome: the acquire invalidation followed by the starved load.
func acquire(t *testing.T, l *Lock, tid int, now uint64) (granted bool) {
	t.Helper()
	if fault := lockInval(l, now, tid); fault {
		t.Fatalf("acquire inval for %d faulted: %s", tid, l.LastError())
	}
	switch l.State(tid) {
	case LockHolding:
		// Granted immediately; the load is serviced normally.
		park, fault := l.onFill(now, tid, fillTxn(l.LineAddr(tid), tid))
		if park || fault {
			t.Fatalf("fill for holder %d: park=%v fault=%v", tid, park, fault)
		}
		return true
	case LockPending:
		park, fault := l.onFill(now, tid, fillTxn(l.LineAddr(tid), tid))
		if !park || fault {
			t.Fatalf("fill for waiter %d: park=%v fault=%v", tid, park, fault)
		}
		return false
	default:
		t.Fatalf("thread %d in %s after acquire inval", tid, l.State(tid))
		return false
	}
}

// lockInval shows l an invalidation of thread tid's lock line.
func lockInval(l *Lock, now uint64, tid int) (fault bool) {
	_, fault = l.onInval(now, l.LineAddr(tid))
	return fault
}

func release(t *testing.T, l *Lock, tid int, now uint64) {
	t.Helper()
	if l.State(tid) != LockHolding {
		t.Fatalf("release by %d in state %s", tid, l.State(tid))
	}
	if fault := lockInval(l, now, tid); fault {
		t.Fatalf("release inval for %d faulted: %s", tid, l.LastError())
	}
}

func TestLockLineMatching(t *testing.T) {
	l := newTestLock(4)
	for tid := 0; tid < 4; tid++ {
		if got, ok := l.MatchLine(l.LineAddr(tid)); !ok || got != tid {
			t.Errorf("line match for %d: %d %v", tid, got, ok)
		}
	}
	if _, ok := l.MatchLine(l.Base + 64); ok {
		t.Error("off-stride address matched")
	}
	if _, ok := l.MatchLine(l.Base + 4*lockStride); ok {
		t.Error("beyond-last-thread address matched")
	}
	if _, ok := l.MatchLine(l.Base - lockStride); ok {
		t.Error("below-base address matched")
	}
}

func TestLockUncontended(t *testing.T) {
	l := newTestLock(4)
	if !acquire(t, l, 2, 10) {
		t.Fatal("uncontended acquire not granted immediately")
	}
	if l.Holder() != 2 {
		t.Fatalf("holder %d, want 2", l.Holder())
	}
	release(t, l, 2, 20)
	if l.Holder() != -1 || l.State(2) != LockIdle {
		t.Fatalf("after release: holder %d state %s", l.Holder(), l.State(2))
	}
	if l.Acquires != 1 || l.Grants != 1 || l.Releases != 1 {
		t.Fatalf("counters: acquires=%d grants=%d releases=%d", l.Acquires, l.Grants, l.Releases)
	}
}

func TestLockFIFOHandoff(t *testing.T) {
	l := newTestLock(4)
	// Thread 1 takes the lock; 3, 0, 2 queue up in that order.
	acquire(t, l, 1, 0)
	for _, tid := range []int{3, 0, 2} {
		if acquire(t, l, tid, 1) {
			t.Fatalf("contended acquire by %d granted", tid)
		}
	}
	if l.ParkedFills != 3 {
		t.Fatalf("parked fills %d, want 3", l.ParkedFills)
	}
	// Each release must hand the lock to the oldest waiter, releasing
	// exactly its parked fill.
	holder := 1
	for _, want := range []int{3, 0, 2} {
		release(t, l, holder, 100)
		if l.Holder() != want {
			t.Fatalf("handoff went to %d, want %d", l.Holder(), want)
		}
		txn, errFill, ok := l.popReleased(101)
		if !ok || errFill {
			t.Fatalf("no clean released fill after grant to %d", want)
		}
		if got, _ := l.MatchLine(txn.Addr); got != want {
			t.Fatalf("released fill belongs to %d, want %d", got, want)
		}
		if _, _, ok := l.popReleased(101); ok {
			t.Fatal("more than one fill released per grant")
		}
		holder = want
	}
	release(t, l, holder, 200)
	if l.Holder() != -1 {
		t.Fatalf("lock not free after last release: holder %d", l.Holder())
	}
}

func TestLockMisuse(t *testing.T) {
	l := newTestLock(2)
	// Demand load without an acquire: attributed fault.
	park, fault := l.onFill(0, 0, fillTxn(l.LineAddr(0), 0))
	if park || !fault {
		t.Fatalf("load before acquire: park=%v fault=%v", park, fault)
	}
	if !strings.Contains(l.LastError(), "load before acquire") {
		t.Fatalf("unattributed error: %q", l.LastError())
	}
	// Speculative fill without an acquire is filtered, not faulted.
	park, fault = l.onFill(0, 0, mem.Txn{Kind: mem.GetI, Addr: l.LineAddr(0), Core: 0})
	if !park || fault {
		t.Fatalf("speculative fill in Idle: park=%v fault=%v", park, fault)
	}
	// Duplicate acquire while Pending: tolerated by default, fault under
	// Strict.
	acquire(t, l, 0, 1)      // granted
	if acquire(t, l, 1, 2) { // queued
		t.Fatal("contended acquire granted")
	}
	if fault := lockInval(l, 3, 1); fault {
		t.Fatal("duplicate acquire faulted without Strict")
	}
	l.Strict = true
	if fault := lockInval(l, 4, 1); !fault {
		t.Fatal("duplicate acquire tolerated under Strict")
	}
	// An unregistered thread faults on both paths.
	l2 := NewLock("u", 0x3100_0000, lockStride, 2)
	if fault := lockInval(l2, 0, 1); !fault {
		t.Fatal("inval for unregistered thread tolerated")
	}
	if _, fault := l2.onFill(0, 1, fillTxn(l2.LineAddr(1), 1)); !fault {
		t.Fatal("fill for unregistered thread tolerated")
	}
}

func TestLockTimeoutReleasesWaiter(t *testing.T) {
	l := newTestLock(2)
	l.Timeout = 50
	acquire(t, l, 0, 0)
	acquire(t, l, 1, 10) // parked behind the holder
	if _, _, ok := l.popReleased(59); ok {
		t.Fatal("fill released before timeout")
	}
	txn, errFill, ok := l.popReleased(60)
	if !ok || !errFill {
		t.Fatalf("timeout did not error-release: ok=%v err=%v", ok, errFill)
	}
	if got, _ := l.MatchLine(txn.Addr); got != 1 {
		t.Fatalf("timeout released thread %d's fill, want 1", got)
	}
	if l.Timeouts != 1 {
		t.Fatalf("timeout counter %d, want 1", l.Timeouts)
	}
}

func TestLockEvictHolderHandsOff(t *testing.T) {
	l := newTestLock(3)
	acquire(t, l, 0, 0)
	acquire(t, l, 1, 1)
	acquire(t, l, 2, 2)
	// Evicting the holder must not wedge the queue: thread 1 is granted.
	if err := l.EvictThread(0); err != nil {
		t.Fatal(err)
	}
	if l.State(0) != LockEvicted {
		t.Fatalf("state %s after evict", l.State(0))
	}
	if l.Holder() != 1 || l.State(1) != LockHolding {
		t.Fatalf("no handoff: holder %d state %s", l.Holder(), l.State(1))
	}
	// Thread 1's parked fill was released cleanly by the grant.
	if _, errFill, ok := l.popReleased(3); !ok || errFill {
		t.Fatal("grantee's fill not cleanly released")
	}
	// Stale accesses to the evicted entry get error responses.
	if fault := lockInval(l, 4, 0); !fault {
		t.Fatal("stale inval tolerated")
	}
	if _, fault := l.onFill(4, 0, fillTxn(l.LineAddr(0), 0)); !fault {
		t.Fatal("stale fill tolerated")
	}
	// Reprogram revalidates; the thread can compete again.
	if err := l.ReprogramThread(0); err != nil {
		t.Fatal(err)
	}
	if l.State(0) != LockIdle {
		t.Fatalf("state %s after reprogram", l.State(0))
	}
	if err := l.ReprogramThread(1); err == nil {
		t.Fatal("reprogram of a live entry tolerated")
	}
}

func TestLockEvictWaiterErrorReleases(t *testing.T) {
	l := newTestLock(3)
	acquire(t, l, 0, 0)
	acquire(t, l, 1, 1)
	if err := l.EvictThread(1); err != nil {
		t.Fatal(err)
	}
	// The waiter's parked fill comes back error-coded so its core faults
	// instead of starving.
	if _, errFill, ok := l.popReleased(2); !ok || !errFill {
		t.Fatal("evicted waiter's fill not error-released")
	}
	if l.EvictErrors == 0 {
		t.Fatal("evict error not counted")
	}
	// The stale wait-queue entry is skipped at the next grant.
	release(t, l, 0, 10)
	if l.Holder() != -1 {
		t.Fatalf("stale waiter granted: holder %d", l.Holder())
	}
}

func TestLockDropParked(t *testing.T) {
	l := newTestLock(2)
	acquire(t, l, 0, 0)
	if fault := lockInval(l, 1, 1); fault {
		t.Fatal(l.LastError())
	}
	park, _ := l.onFill(1, 1, fillTxn(l.LineAddr(1), 5))
	if !park {
		t.Fatal("waiter fill not parked")
	}
	if n := l.DropParked(5); n != 1 {
		t.Fatalf("dropped %d fills, want 1", n)
	}
	// The thread stays queued: a re-issued fill parks again and the grant
	// finds it.
	if l.State(1) != LockPending {
		t.Fatalf("state %s after drop", l.State(1))
	}
	park, _ = l.onFill(2, 1, fillTxn(l.LineAddr(1), 5))
	if !park {
		t.Fatal("re-issued fill not parked")
	}
	release(t, l, 0, 3)
	if l.Holder() != 1 {
		t.Fatalf("holder %d after release, want 1", l.Holder())
	}
	if _, errFill, ok := l.popReleased(4); !ok || errFill {
		t.Fatal("re-issued fill not cleanly released on grant")
	}
}

type lockEvent struct {
	acquire bool
	thread  int
}

// recProbe records the lock events of the probe stream.
type recProbe struct{ events []lockEvent }

func (r *recProbe) OnEvent(e mem.Event) {
	if e.Kind == mem.EvLockGrant || e.Kind == mem.EvLockRelease {
		r.events = append(r.events, lockEvent{e.Kind == mem.EvLockGrant, e.Core})
	}
}

func TestLockObserverSeesHandoff(t *testing.T) {
	l := newTestLock(2)
	rec := &recProbe{}
	l.probe = rec
	acquire(t, l, 0, 0)
	acquire(t, l, 1, 1)
	release(t, l, 0, 2)
	release(t, l, 1, 3)
	// Grant events fire when the FSM grants: thread 0 at its own acquire,
	// thread 1 at 0's release (after the release event).
	want := []lockEvent{{true, 0}, {false, 0}, {true, 1}, {false, 1}}
	if len(rec.events) != len(want) {
		t.Fatalf("got %d events, want %d: %+v", len(rec.events), len(want), rec.events)
	}
	for i, e := range rec.events {
		if e != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, e, want[i])
		}
	}
}

func TestBankLockLifecycle(t *testing.T) {
	b := NewBankFilters(2)
	b.Cap = 6
	l := newTestLock(4)
	if err := b.AddLock(l); err != nil {
		t.Fatal(err)
	}
	if b.Entries() != 4 || b.InUse() != 1 {
		t.Fatalf("entries=%d inuse=%d", b.Entries(), b.InUse())
	}
	if got := b.Hosted(); len(got) != 1 || got[0] != Primitive(l) {
		t.Fatalf("Hosted() = %v", got)
	}
	// Entry capacity is shared with filters: a 4-entry filter no longer
	// fits and spills.
	f := newTestFilter(4)
	if err := b.Add(f); err == nil || !strings.Contains(err.Error(), "capacity") {
		t.Fatalf("overfull Add: %v", err)
	}
	if b.Spills != 1 {
		t.Fatalf("spills %d, want 1", b.Spills)
	}
	// The engine routes the bank-hook protocol to the lock.
	if fault := b.OnInval(0, l.LineAddr(1), 1); fault {
		t.Fatal(b.LastError())
	}
	if l.Holder() != 1 {
		t.Fatalf("holder %d after routed acquire", l.Holder())
	}
	// Retire: parked state evicted, stale tags keep answering.
	b.Retire(l)
	if b.InUse() != 0 || len(b.Retired()) != 1 {
		t.Fatalf("inuse=%d retired=%d", b.InUse(), len(b.Retired()))
	}
	if fault := b.OnInval(1, l.LineAddr(1), 1); !fault {
		t.Fatal("stale inval on retired lock tolerated")
	}
	if park, fault := b.OnFill(1, fillTxn(l.LineAddr(0), 0)); park || !fault {
		t.Fatal("stale fill on retired lock tolerated")
	}
}
