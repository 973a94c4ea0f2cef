package filter

import (
	"testing"

	"repro/internal/mem"
)

// FuzzLockFSM drives one hardware lock through an arbitrary byte-encoded
// sequence of invalidations, fills, evictions, reprograms, and parked-fill
// drops, and checks that every transition either matches the lock automaton
// or is rejected with an attributed error — never a panic, a lost fill, or
// a lost waiter. The no-waiter-lost oracle is the grant invariant: whenever
// the lock is free, no registered thread may remain Pending, and every
// Pending thread must sit in the FIFO wait queue.
//
// Each input byte is one operation: the low 3 bits pick the op, the next
// 2 bits the thread, the rest the issuing core. Strict checking is on, so
// a duplicate acquire is an attributed fault rather than a silent drop.
func FuzzLockFSM(f *testing.F) {
	f.Add([]byte{0x00, 0x08, 0x10, 0x18}) // four acquires: one grant, three queued
	f.Add([]byte{0x00, 0x01, 0x00, 0x08}) // acquire, fill, release, next acquire
	f.Add([]byte{0x03, 0x01, 0x04, 0x01}) // evict, stale fill, reprogram, fill
	f.Add([]byte{0x00, 0x08, 0x09, 0x03}) // holder + waiter parked, evict holder
	f.Add([]byte{0x02, 0x07, 0x06})       // speculative fill, clock jump, drain
	f.Add([]byte{0x08, 0x09, 0x25, 0x06}) // waiter parks, core descheduled, drain

	f.Fuzz(func(t *testing.T, ops []byte) {
		const n = 4
		l := newTestLock(n)
		l.Strict = true
		l.Timeout = 50
		// Hosted, and drained through the bank, so the bank's idle
		// shortcut must never hide a release or a due timeout.
		bank := NewBankFilters(1)
		if err := bank.Add(l); err != nil {
			t.Fatal(err)
		}
		now := uint64(0)
		parked := 0 // fills currently withheld (oracle)
		for _, op := range ops {
			now += 3
			tid := int(op >> 3 & 0x3)
			core := int(op >> 5)
			errsBefore := l.Errors
			switch op & 0x7 {
			case 0: // lock-line invalidation: acquire or release
				st := l.State(tid)
				fault := lockInval(l, now, tid)
				switch st {
				case LockIdle:
					if fault {
						t.Fatalf("acquire inval in Idle faulted: %s", l.LastError())
					}
					if got := l.State(tid); got != LockPending && got != LockHolding {
						t.Fatalf("state %s after acquire inval", got)
					}
				case LockPending: // duplicate acquire under Strict
					if !fault {
						t.Fatal("duplicate acquire tolerated under Strict")
					}
				case LockHolding: // release
					if fault {
						t.Fatalf("release inval faulted: %s", l.LastError())
					}
					if l.State(tid) != LockIdle {
						t.Fatalf("state %s after release", l.State(tid))
					}
				default: // Evicted: stale tag
					if !fault {
						t.Fatal("stale inval tolerated")
					}
				}
			case 1: // demand fill
				st := l.State(tid)
				park, fault := l.onFill(now, tid, fillTxn(l.LineAddr(tid), core))
				switch st {
				case LockPending:
					if !park || fault {
						t.Fatalf("fill in Pending: park=%v fault=%v", park, fault)
					}
					parked++
				case LockHolding:
					if park || fault {
						t.Fatalf("fill in Holding: park=%v fault=%v", park, fault)
					}
				default: // Idle (load before acquire), Evicted (stale tag)
					if park || !fault {
						t.Fatalf("fill in %s: park=%v fault=%v", st, park, fault)
					}
				}
			case 2: // speculative fill (wrong-path ifetch)
				st := l.State(tid)
				park, fault := l.onFill(now, tid, mem.Txn{Kind: mem.GetI, Addr: l.LineAddr(tid), Core: core})
				if st == LockEvicted {
					if park || !fault {
						t.Fatalf("speculative fill on evicted: park=%v fault=%v", park, fault)
					}
				} else if st == LockHolding {
					if park || fault {
						t.Fatalf("speculative fill in Holding: park=%v fault=%v", park, fault)
					}
				} else if fault {
					t.Fatalf("speculative fill faulted in %s", st)
				} else if !park {
					t.Fatalf("speculative fill not filtered in %s", st)
				} else {
					parked++
				}
			case 3: // deallocation
				if err := l.EvictThread(tid); err != nil {
					t.Fatalf("evict thread %d: %v", tid, err)
				}
				if l.State(tid) != LockEvicted {
					t.Fatalf("state %s after evict", l.State(tid))
				}
				// Parked fills moved to the release queue error-coded; the
				// oracle count is unchanged. If the holder was evicted, the
				// grant may already have handed the lock to a waiter.
			case 4: // reprogram
				st := l.State(tid)
				err := l.ReprogramThread(tid)
				if (err == nil) != (st == LockEvicted) {
					t.Fatalf("reprogram in %s: err=%v", st, err)
				}
				if err == nil && l.State(tid) != LockIdle {
					t.Fatal("reprogram did not restart in Idle")
				}
			case 5: // deschedule: drop the core's parked fills silently
				relBefore := l.releaseQ.Len()
				parked -= l.DropParked(core)
				if l.releaseQ.Len() != relBefore {
					t.Fatal("drop must not release fills")
				}
			case 6: // drain the release queue (timeouts included)
				for {
					_, _, ok := bank.PopReleased(now)
					if !ok {
						break
					}
					parked--
				}
			case 7: // clock jump past the timeout window
				now += 100
			}
			// A fault must always carry an attributed message.
			if l.Errors > errsBefore && l.LastError() == "" {
				t.Fatal("fault without an attributed error message")
			}
			// Global invariants, checked after every op.
			holder := l.Holder()
			if holder < -1 || holder >= n {
				t.Fatalf("holder %d out of range", holder)
			}
			holding := 0
			pend := 0
			inQ := make(map[int]bool, n)
			for _, q := range l.WaitQueue() {
				inQ[q] = true
			}
			for i := 0; i < n; i++ {
				switch l.State(i) {
				case LockHolding:
					holding++
					if holder != i {
						t.Fatalf("thread %d Holding but holder register says %d", i, holder)
					}
				case LockPending:
					// No waiter lost, part 1: a Pending thread is always
					// reachable from the wait queue.
					if !inQ[i] {
						t.Fatalf("thread %d Pending but absent from the wait queue", i)
					}
					// No waiter lost, part 2: a free lock with a waiter
					// means a missed grant.
					if holder < 0 {
						t.Fatalf("thread %d Pending while the lock is free", i)
					}
				case LockEvicted:
					if l.PendingFor(i) > 0 {
						t.Fatalf("evicted entry %d withholds %d fills", i, l.PendingFor(i))
					}
				}
				pend += l.PendingFor(i)
			}
			if holding > 1 {
				t.Fatalf("%d threads Holding at once", holding)
			}
			if holder >= 0 && l.State(holder) != LockHolding {
				t.Fatalf("holder register says %d but its state is %s", holder, l.State(holder))
			}
			// No fill is ever lost or duplicated: every fill the lock
			// accepted is parked, queued for release, or was surfaced
			// through popReleased (or silently dropped on deschedule).
			checkWork(t, bank)
			if pend+l.releaseQ.Len() != parked {
				t.Fatalf("fill accounting: %d parked+queued, oracle says %d withheld", pend+l.releaseQ.Len(), parked)
			}
		}
	})
}
