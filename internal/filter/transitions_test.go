package filter

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/mem"
)

// The per-thread entry automaton is the same for every primitive kind: what
// a fill, an eviction, a reprogram, a deschedule drop or a timeout does
// depends only on the entry's 2-bit state, never on whether the table is a
// barrier or a lock. This file pins those shared transitions once, over both
// kinds, through API both kinds share — the returned (park, fault), every
// counter touched (and that no other counter moves), and the exact
// LastError text, which reaches cycle-limit reports and cached chaos bytes.

// pinPrim is what the driver needs of a primitive, kind-agnostically.
type pinPrim interface {
	RegisterThread(t int) error
	EvictThread(t int) error
	ReprogramThread(t int) error
	DropParked(core int) int
	LastError() string
}

// pinKind adapts one kind: how to build and host it, where thread t's
// filtered line is, and which invalidations take thread 0 of a fresh
// three-thread primitive to the signalled (1) or open (2) state.
type pinKind struct {
	noun    string
	states  [4]string // the kind's names for states 0..3
	hint    string    // the demand-fill-in-state-0 diagnosis
	mk      func() pinPrim
	add     func(b *BankFilters, p pinPrim) error
	line    func(p pinPrim, t int) uint64
	state   func(p pinPrim, t int) string
	timeout func(p pinPrim, cycles uint64)
	// signal lists the threads whose lines are invalidated, in order, to
	// leave thread 0 in state 1; open likewise for state 2; grant takes a
	// signalled thread 0 on to state 2, releasing its parked fills.
	signal, open, grant []int
}

var pinKinds = []pinKind{
	{
		noun:   "filter",
		states: [4]string{"Waiting", "Blocking", "Servicing", "Evicted"},
		hint:   "load before invalidate?",
		mk:     func() pinPrim { return New("p", aBase, eBase, stride, 3) },
		add:    func(b *BankFilters, p pinPrim) error { return b.Add(p.(*Filter)) },
		line:   func(p pinPrim, t int) uint64 { return p.(*Filter).ArrivalAddr(t) },
		state:  func(p pinPrim, t int) string { return p.(*Filter).State(t).String() },
		timeout: func(p pinPrim, c uint64) {
			p.(*Filter).Timeout = c
		},
		signal: []int{0},
		open:   []int{0, 1, 2}, // the last arrival opens the barrier for everyone
		grant:  []int{1, 2},
	},
	{
		noun:   "lock",
		states: [4]string{"Idle", "Pending", "Holding", "Evicted"},
		hint:   "load before acquire?",
		mk:     func() pinPrim { return NewLock("p", 0x3000_0000, lockStride, 3) },
		add:    func(b *BankFilters, p pinPrim) error { return b.AddLock(p.(*Lock)) },
		line:   func(p pinPrim, t int) uint64 { return p.(*Lock).LineAddr(t) },
		state:  func(p pinPrim, t int) string { return p.(*Lock).State(t).String() },
		timeout: func(p pinPrim, c uint64) {
			p.(*Lock).Timeout = c
		},
		signal: []int{1, 0}, // thread 1 takes the lock, thread 0 queues behind it
		open:   []int{0},
		grant:  []int{1}, // the holder's release hands the lock on
	},
}

// pinCounters flattens every exported uint64 field of p, embedded structs
// included, so a case can assert on all counters at once: the ones it names
// moved by exactly the stated amount and no other moved at all.
func pinCounters(p interface{}) map[string]uint64 {
	out := map[string]uint64{}
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			switch {
			case f.Anonymous && f.Type.Kind() == reflect.Struct:
				walk(v.Field(i))
			case f.PkgPath == "" && f.Type.Kind() == reflect.Uint64:
				out[f.Name] = v.Field(i).Uint()
			}
		}
	}
	walk(reflect.ValueOf(p).Elem())
	return out
}

// pinFixture is one hosted primitive with thread 0 driven to a start state.
type pinFixture struct {
	k   pinKind
	b   *BankFilters
	p   pinPrim
	now uint64
}

// newPinFixture hosts a fresh primitive with threads 0..registered-1
// registered and drives thread 0 into state st (0..3) by invalidations (and
// an eviction for state 3) only.
func newPinFixture(t *testing.T, k pinKind, registered, st int) *pinFixture {
	t.Helper()
	x := &pinFixture{k: k, b: NewBankFilters(1), p: k.mk(), now: 10}
	for i := 0; i < registered; i++ {
		if err := x.p.RegisterThread(i); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.add(x.b, x.p); err != nil {
		t.Fatal(err)
	}
	var invals []int
	switch st {
	case 1:
		invals = k.signal
	case 2:
		invals = k.open
	case 3:
		if err := x.p.EvictThread(0); err != nil {
			t.Fatal(err)
		}
	}
	for _, tid := range invals {
		if x.b.OnInval(x.now, k.line(x.p, tid), tid) {
			t.Fatalf("set-up inval for thread %d faulted: %s", tid, x.p.LastError())
		}
	}
	if got := k.state(x.p, 0); got != k.states[st] {
		t.Fatalf("set-up left thread 0 in %s, want %s", got, k.states[st])
	}
	return x
}

// fill sends a fill request for thread tid's line from the given core.
func (x *pinFixture) fill(tid, core int, kind mem.TxnKind, prefetch bool) (park, fault bool) {
	return x.b.OnFill(x.now, mem.Txn{Kind: kind, Addr: x.k.line(x.p, tid), Core: core, ID: 1, Prefetch: prefetch})
}

// expect checks everything a transition may leave behind: the counters it
// touched (by name; "Serviced" is a prefix because the fills-serviced
// counter carries a per-kind suffix in some revisions), thread 0's state,
// and the protocol-error text ("" = untouched since set-up, i.e. empty).
func (x *pinFixture) expect(t *testing.T, before map[string]uint64, touched map[string]uint64, state int, lastErr string) {
	t.Helper()
	after := pinCounters(x.p)
	seen := map[string]bool{}
	var names []string
	for name := range after {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		delta := after[name] - before[name]
		if delta == 0 {
			continue
		}
		matched := false
		for want, by := range touched {
			if strings.HasPrefix(name, want) {
				matched = true
				seen[want] = true
				if delta != by {
					t.Errorf("counter %s moved by %d, want %d", name, delta, by)
				}
			}
		}
		if !matched {
			t.Errorf("counter %s moved by %d, want it untouched", name, delta)
		}
	}
	for want := range touched {
		if !seen[want] {
			t.Errorf("counter %s* did not move", want)
		}
	}
	if got := x.k.state(x.p, 0); got != x.k.states[state] {
		t.Errorf("thread 0 in state %s, want %s", got, x.k.states[state])
	}
	if got := x.p.LastError(); got != lastErr {
		t.Errorf("LastError = %q, want %q", got, lastErr)
	}
	checkWork(t, x.b)
}

// checkWork asserts that the count PopReleased's idle shortcut reads equals
// what the bank's tables actually hold.
func checkWork(t *testing.T, b *BankFilters) {
	t.Helper()
	n := 0
	for _, ps := range [2][]Primitive{b.Hosted(), b.Retired()} {
		for _, p := range ps {
			n += p.Table().work()
		}
	}
	if *b.work != n {
		t.Errorf("bank work count %d, tables hold %d", *b.work, n)
	}
}

// popAll drains a bank's releases and returns the issuing cores, with
// whether each was error-coded.
func popAll(t *testing.T, b *BankFilters, now uint64) (cores []int, errs []bool) {
	t.Helper()
	for {
		txn, errFill, ok := b.PopReleased(now)
		if !ok {
			checkWork(t, b)
			return cores, errs
		}
		cores, errs = append(cores, txn.Core), append(errs, errFill)
	}
}

func TestSharedFillTransitions(t *testing.T) {
	fills := []struct {
		name     string
		kind     mem.TxnKind
		prefetch bool
	}{{"demand", mem.GetS, false}, {"prefetch", mem.GetS, true}, {"ifetch", mem.GetI, false}}
	for _, k := range pinKinds {
		for st := 0; st < 4; st++ {
			for _, fl := range fills {
				t.Run(fmt.Sprintf("%s/%s/%s", k.noun, k.states[st], fl.name), func(t *testing.T) {
					x := newPinFixture(t, k, 3, st)
					before := pinCounters(x.p)
					park, fault := x.fill(0, 0, fl.kind, fl.prefetch)
					speculative := fl.prefetch || fl.kind == mem.GetI
					var wantPark, wantFault bool
					touched := map[string]uint64{}
					lastErr := ""
					switch {
					case st == 0 && speculative:
						// Filtered, not faulted — and not counted as a
						// barrier/lock park either.
						wantPark = true
					case st == 0:
						wantFault = true
						touched["Errors"] = 1
						lastErr = fmt.Sprintf("%s p: fill for thread 0 in state %s (%s)", k.noun, k.states[0], k.hint)
					case st == 1:
						wantPark = true
						touched["ParkedFills"] = 1
					case st == 2:
						touched["Serviced"] = 1
					case st == 3:
						wantFault = true
						touched["Errors"] = 1
						touched["EvictErrors"] = 1
						lastErr = fmt.Sprintf("%s p: fill for thread 0 on an evicted entry (stale tag)", k.noun)
					}
					if park != wantPark || fault != wantFault {
						t.Errorf("park=%v fault=%v, want park=%v fault=%v", park, fault, wantPark, wantFault)
					}
					x.expect(t, before, touched, st, lastErr)
					if _, _, ok := x.b.PopReleased(x.now); ok {
						t.Error("a fill request must not release anything")
					}
				})
			}
		}
	}
}

func TestSharedEntryTransitions(t *testing.T) {
	for _, k := range pinKinds {
		k := k
		t.Run(k.noun+"/evict-releases-parked-with-error", func(t *testing.T) {
			x := newPinFixture(t, k, 3, 1)
			x.fill(0, 4, mem.GetS, false)
			x.fill(0, 5, mem.GetS, false) // context-switched second park
			before := pinCounters(x.p)
			if err := x.p.EvictThread(0); err != nil {
				t.Fatal(err)
			}
			x.expect(t, before, map[string]uint64{"Evictions": 1, "EvictErrors": 2}, 3, "")
			for _, core := range []int{4, 5} {
				txn, errFill, ok := x.b.PopReleased(x.now)
				if !ok || !errFill || txn.Core != core {
					t.Fatalf("evict release: ok=%v err=%v txn=%v, want core %d error-coded", ok, errFill, txn, core)
				}
			}
			// Deallocation is idempotent: no counter, no release, no error.
			before = pinCounters(x.p)
			if err := x.p.EvictThread(0); err != nil {
				t.Fatal(err)
			}
			x.expect(t, before, nil, 3, "")
			if _, _, ok := x.b.PopReleased(x.now); ok {
				t.Error("double evict released something")
			}
		})
		t.Run(k.noun+"/swap-moves-queued-releases", func(t *testing.T) {
			// The OS swap (§3.3.3): a primitive whose grant is still
			// draining moves banks, and its releases move with it.
			x := newPinFixture(t, k, 3, 1)
			x.fill(0, 4, mem.GetS, false)
			x.fill(0, 5, mem.GetS, false)
			for _, tid := range k.grant {
				if x.b.OnInval(x.now, k.line(x.p, tid), tid) {
					t.Fatalf("grant inval for thread %d faulted: %s", tid, x.p.LastError())
				}
			}
			x.b.Remove(x.p.(Primitive))
			to := NewBankFilters(1)
			if err := k.add(to, x.p); err != nil {
				t.Fatal(err)
			}
			checkWork(t, x.b)
			checkWork(t, to)
			if cores, _ := popAll(t, x.b, x.now); len(cores) != 0 {
				t.Errorf("old bank released fills of cores %v after the swap", cores)
			}
			cores, errs := popAll(t, to, x.now)
			if !reflect.DeepEqual(cores, []int{4, 5}) || !reflect.DeepEqual(errs, []bool{false, false}) {
				t.Errorf("new bank released cores %v (error-coded %v), want [4 5] serviced", cores, errs)
			}
		})
		t.Run(k.noun+"/retire-releases-pop", func(t *testing.T) {
			x := newPinFixture(t, k, 3, 1)
			x.fill(0, 4, mem.GetS, false)
			x.fill(0, 5, mem.GetS, false)
			x.b.Retire(x.p.(Primitive))
			checkWork(t, x.b)
			cores, errs := popAll(t, x.b, x.now)
			if !reflect.DeepEqual(cores, []int{4, 5}) || !reflect.DeepEqual(errs, []bool{true, true}) {
				t.Errorf("retire released cores %v (error-coded %v), want [4 5] error-coded", cores, errs)
			}
			// A retiree pushed off the retired list takes its share of the
			// count with it, releases still queued included.
			y := k.mk()
			for tid := 0; tid < 3; tid++ {
				if err := y.RegisterThread(tid); err != nil {
					t.Fatal(err)
				}
			}
			if err := k.add(x.b, y); err != nil {
				t.Fatal(err)
			}
			if park, _ := x.b.OnFill(x.now, mem.Txn{Kind: mem.GetI, Addr: k.line(y, 0), Core: 7, ID: 1}); !park {
				t.Fatal("speculative fill in state 0 not parked")
			}
			x.b.Retire(y.(Primitive)) // the parked ifetch is error-released, and left queued
			checkWork(t, x.b)
			for i := 0; i < maxRetired; i++ {
				z := k.mk()
				if err := k.add(x.b, z); err != nil {
					t.Fatal(err)
				}
				x.b.Retire(z.(Primitive))
				checkWork(t, x.b)
			}
			if cores, _ := popAll(t, x.b, x.now); len(cores) != 0 {
				t.Errorf("forgotten retiree still released cores %v", cores)
			}
		})
		t.Run(k.noun+"/reprogram", func(t *testing.T) {
			x := newPinFixture(t, k, 3, 1)
			before := pinCounters(x.p)
			wantErr := fmt.Sprintf("%s p: reprogram of thread 0 in state %s", k.noun, k.states[1])
			if err := x.p.ReprogramThread(0); err == nil || err.Error() != wantErr {
				t.Fatalf("reprogram of a live entry: %v, want %q", err, wantErr)
			}
			x.expect(t, before, map[string]uint64{"Errors": 1}, 1, wantErr)

			x = newPinFixture(t, k, 3, 3)
			before = pinCounters(x.p)
			if err := x.p.ReprogramThread(0); err != nil {
				t.Fatal(err)
			}
			x.expect(t, before, map[string]uint64{"Reprograms": 1}, 0, "")
		})
		t.Run(k.noun+"/reprogram-registers", func(t *testing.T) {
			// Thread 2 was never registered; evict + reprogram validates it.
			x := newPinFixture(t, k, 2, 0)
			if err := x.p.EvictThread(2); err != nil {
				t.Fatal(err)
			}
			if err := x.p.ReprogramThread(2); err != nil {
				t.Fatal(err)
			}
			if park, fault := x.fill(2, 2, mem.GetS, true); !park || fault {
				t.Fatalf("speculative fill for the reprogrammed thread: park=%v fault=%v (%s)", park, fault, x.p.LastError())
			}
		})
		t.Run(k.noun+"/drop", func(t *testing.T) {
			x := newPinFixture(t, k, 3, 1)
			x.fill(0, 5, mem.GetS, false)
			before := pinCounters(x.p)
			if n := x.p.DropParked(4); n != 0 {
				t.Fatalf("dropped %d fills of a core with nothing parked", n)
			}
			x.expect(t, before, nil, 1, "")
			if n := x.p.DropParked(5); n != 1 {
				t.Fatalf("dropped %d fills, want 1", n)
			}
			// Silent: the signal stays in force and nothing is released.
			x.expect(t, before, map[string]uint64{"DroppedFills": 1}, 1, "")
			if _, _, ok := x.b.PopReleased(x.now); ok {
				t.Error("drop released something")
			}
		})
		t.Run(k.noun+"/timeout", func(t *testing.T) {
			x := newPinFixture(t, k, 3, 1)
			k.timeout(x.p, 50)
			x.fill(0, 5, mem.GetS, false) // parked at cycle 10
			before := pinCounters(x.p)
			if ev, ok := x.b.NextEvent(20); !ok || ev != 60 {
				t.Fatalf("NextEvent = %d, %v, want 60", ev, ok)
			}
			if _, _, ok := x.b.PopReleased(59); ok {
				t.Fatal("released before the timeout")
			}
			x.expect(t, before, nil, 1, "")
			txn, errFill, ok := x.b.PopReleased(60)
			if !ok || !errFill || txn.Core != 5 {
				t.Fatalf("timeout pop: ok=%v err=%v txn=%v", ok, errFill, txn)
			}
			x.expect(t, before, map[string]uint64{"Timeouts": 1}, 1, "")
			if _, ok := x.b.NextEvent(61); ok {
				t.Error("NextEvent with nothing parked")
			}
		})
		t.Run(k.noun+"/unregistered", func(t *testing.T) {
			x := newPinFixture(t, k, 2, 0)
			before := pinCounters(x.p)
			for _, prefetch := range []bool{false, true} {
				if park, fault := x.fill(2, 2, mem.GetS, prefetch); park || !fault {
					t.Fatalf("fill for an unregistered thread (prefetch=%v): park=%v fault=%v", prefetch, park, fault)
				}
			}
			x.expect(t, before, map[string]uint64{"Errors": 2}, 0,
				fmt.Sprintf("%s p: fill for unregistered thread 2", k.noun))
			if !x.b.OnInval(x.now, k.line(x.p, 2), 2) {
				t.Fatal("inval for an unregistered thread tolerated")
			}
			signal := map[string]string{"filter": "arrival inval", "lock": "inval"}[k.noun]
			x.expect(t, before, map[string]uint64{"Errors": 3}, 0,
				fmt.Sprintf("%s p: %s for unregistered thread 2", k.noun, signal))
		})
		t.Run(k.noun+"/out-of-range", func(t *testing.T) {
			x := newPinFixture(t, k, 3, 0)
			before := pinCounters(x.p)
			for _, c := range []struct {
				err  error
				want string
			}{
				{x.p.RegisterThread(3), "%s p: thread 3 out of range"},
				{x.p.RegisterThread(-1), "%s p: thread -1 out of range"},
				{x.p.EvictThread(7), "%s p: evict: thread 7 out of range"},
				{x.p.ReprogramThread(-1), "%s p: reprogram: thread -1 out of range"},
			} {
				if want := fmt.Sprintf(c.want, k.noun); c.err == nil || c.err.Error() != want {
					t.Errorf("got error %v, want %q", c.err, want)
				}
			}
			// A range error is the caller's, not a protocol error.
			x.expect(t, before, nil, 0, "")
		})
	}
}
