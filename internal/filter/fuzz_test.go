package filter

import (
	"testing"

	"repro/internal/mem"
)

// FuzzFilterFSM drives one filter through an arbitrary byte-encoded
// sequence of invalidations, fills, evictions, reprograms, and parked-fill
// drops, and checks that every transition either matches the Figure 3
// automaton (as extended with the Evicted state) or is rejected with an
// attributed error — never a panic, a lost fill, or a broken invariant.
//
// Each input byte is one operation: the low 3 bits pick the op, the next
// 2 bits the thread, the rest the issuing core. The model mirrors only
// what the oracle needs: per-thread parked-fill counts and the set of
// legal states.
func FuzzFilterFSM(f *testing.F) {
	f.Add([]byte{0x00, 0x08, 0x10, 0x18}) // all four arrivals: opens
	f.Add([]byte{0x00, 0x01, 0x02})       // arrive, fill, exit-too-early
	f.Add([]byte{0x03, 0x01, 0x04, 0x01}) // evict, stale fill, reprogram, fill
	f.Add([]byte{0x00, 0x01, 0x05, 0x03}) // arrive, park, drop, evict
	f.Add([]byte{0x06, 0x07})             // speculative fill, timeout pop

	f.Fuzz(func(t *testing.T, ops []byte) {
		const n = 4
		flt := newTestFilter(n)
		flt.Timeout = 50
		// Hosted, and drained through the bank, so the bank's idle
		// shortcut must never hide a release or a due timeout.
		bank := NewBankFilters(1)
		if err := bank.Add(flt); err != nil {
			t.Fatal(err)
		}
		now := uint64(0)
		parked := 0 // fills currently withheld (oracle)
		released := 0
		for _, op := range ops {
			now += 3
			tid := int(op >> 3 & 0x3)
			core := int(op >> 5)
			errsBefore := flt.Errors
			switch op & 0x7 {
			case 0: // arrival invalidation
				st := flt.State(tid)
				fault := flt.onArrivalInval(now, tid)
				legal := st == Waiting || st == Blocking
				if fault == legal {
					t.Fatalf("arrival inval in %s: fault=%v", st, fault)
				}
			case 1: // demand fill
				st := flt.State(tid)
				park, fault := flt.onFill(now, tid, fillTxn(flt.ArrivalAddr(tid), core))
				switch st {
				case Blocking:
					if !park || fault {
						t.Fatalf("fill in Blocking: park=%v fault=%v", park, fault)
					}
					parked++
				case Servicing:
					if park || fault {
						t.Fatalf("fill in Servicing: park=%v fault=%v", park, fault)
					}
				default: // Waiting (demand too early), Evicted (stale tag)
					if park || !fault {
						t.Fatalf("fill in %s: park=%v fault=%v", st, park, fault)
					}
				}
			case 2: // exit invalidation
				st := flt.State(tid)
				fault := flt.onExitInval(tid)
				if fault == (st == Servicing) {
					t.Fatalf("exit inval in %s: fault=%v", st, fault)
				}
			case 3: // deallocation
				if err := flt.EvictThread(tid); err != nil {
					t.Fatalf("evict thread %d: %v", tid, err)
				}
				if flt.State(tid) != Evicted {
					t.Fatalf("state %s after evict", flt.State(tid))
				}
				// Parked fills moved to the release queue error-coded;
				// they surface through popReleased, so the oracle count
				// is unchanged.
			case 4: // reprogram
				st := flt.State(tid)
				err := flt.ReprogramThread(tid)
				if (err == nil) != (st == Evicted) {
					t.Fatalf("reprogram in %s: err=%v", st, err)
				}
				if err == nil && flt.State(tid) != Waiting {
					t.Fatal("reprogram did not restart in Waiting")
				}
			case 5: // deschedule: drop the core's parked fills silently
				relBefore := flt.releaseQ.Len()
				parked -= flt.DropParked(core)
				if flt.releaseQ.Len() != relBefore {
					t.Fatal("drop must not release fills")
				}
			case 6: // speculative fill (wrong-path ifetch)
				st := flt.State(tid)
				park, fault := flt.onFill(now, tid, mem.Txn{Kind: mem.GetI, Addr: flt.ArrivalAddr(tid), Core: core})
				if st == Evicted {
					if park || !fault {
						t.Fatalf("speculative fill on evicted: park=%v fault=%v", park, fault)
					}
				} else if fault {
					t.Fatalf("speculative fill faulted in %s", st)
				} else if park {
					parked++
				}
			case 7: // drain the release queue (timeouts included)
				for {
					_, _, ok := bank.PopReleased(now)
					if !ok {
						break
					}
					released++
					parked--
				}
			}
			// A fault must always carry an attributed message.
			if flt.Errors > errsBefore && flt.LastError() == "" {
				t.Fatal("fault without an attributed error message")
			}
			// Global invariants, checked after every op.
			if flt.ArrivedCount() < 0 || flt.ArrivedCount() >= n {
				t.Fatalf("arrived counter %d out of range", flt.ArrivedCount())
			}
			blocking := 0
			pend := 0
			for i := 0; i < n; i++ {
				if flt.State(i) == Blocking {
					blocking++
				}
				if flt.State(i) == Evicted && flt.PendingFor(i) > 0 {
					t.Fatalf("evicted entry %d withholds %d fills", i, flt.PendingFor(i))
				}
				pend += flt.PendingFor(i)
			}
			if flt.ArrivedCount() != blocking {
				t.Fatalf("arrived counter %d but %d threads Blocking", flt.ArrivedCount(), blocking)
			}
			// No fill is ever lost or duplicated: every fill the filter
			// accepted is parked, queued for release, or was surfaced
			// through popReleased (or silently dropped on deschedule).
			checkWork(t, bank)
			if pend+flt.releaseQ.Len() != parked {
				t.Fatalf("fill accounting: %d parked+queued, oracle says %d withheld", pend+flt.releaseQ.Len(), parked)
			}
		}
	})
}
