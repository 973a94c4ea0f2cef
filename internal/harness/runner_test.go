package harness

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// allLocal lists every index of an n-cell sweep.
func allLocal(n int) []int {
	local := make([]int, n)
	for i := range local {
		local[i] = i
	}
	return local
}

// startLog records the order cells start in.
type startLog struct {
	mu    sync.Mutex
	order []int
}

func (l *startLog) add(i int) {
	l.mu.Lock()
	l.order = append(l.order, i)
	l.mu.Unlock()
}

// TestRunnerRunsEveryCellOnce: every index runs exactly once and is
// delivered exactly once, in index order, at any slot count.
func TestRunnerRunsEveryCellOnce(t *testing.T) {
	for _, slots := range []int{1, 2, 8, 64} {
		var hits [37]atomic.Int32
		var delivered []int
		r := NewRunner(context.Background(), make(chan struct{}, slots), len(hits))
		err := r.Run(allLocal(len(hits)), func(i int) { hits[i].Add(1) }, func(i int) error {
			delivered = append(delivered, i)
			return nil
		})
		if err != nil {
			t.Fatalf("slots=%d: %v", slots, err)
		}
		for i := range hits {
			if n := hits[i].Load(); n != 1 {
				t.Fatalf("slots=%d: index %d ran %d times", slots, i, n)
			}
			if delivered[i] != i {
				t.Fatalf("slots=%d: delivery order %v", slots, delivered)
			}
		}
	}
}

// TestRunnerDispatchOrder: cells are handed their slots in index order. A
// cell's body cannot observe the handout itself (the goroutine it is spawned
// on is scheduled whenever), but it can observe what the handout implies:
// every lower cell was handed out before it and at most slots-1 of them can
// still be running, so when cell i's body starts at least i-(slots-1) lower
// cells have finished. With one slot that is the plain sequential loop —
// start order 0, 1, 2, ... — and with W slots cell i cannot start before the
// cells up to i-W have been started and all but W-1 of them have ended,
// however long the cells take.
func TestRunnerDispatchOrder(t *testing.T) {
	const n = 60
	for _, slots := range []int{1, 3, 8} {
		rng := rand.New(rand.NewSource(int64(slots)))
		delay := make([]time.Duration, n)
		for i := range delay {
			delay[i] = time.Duration(rng.Intn(300)) * time.Microsecond
		}
		var log startLog
		var finished [n]atomic.Bool
		var short atomic.Int32 // first cell that started too early, +1
		r := NewRunner(context.Background(), make(chan struct{}, slots), n)
		if err := r.Run(allLocal(n), func(i int) {
			log.add(i)
			lower := 0
			for j := 0; j < i; j++ {
				if finished[j].Load() {
					lower++
				}
			}
			if lower < i-(slots-1) {
				short.CompareAndSwap(0, int32(i)+1)
			}
			time.Sleep(delay[i])
			finished[i].Store(true)
		}, func(int) error { return nil }); err != nil {
			t.Fatal(err)
		}
		if i := short.Load(); i != 0 {
			t.Fatalf("slots=%d: cell %d started with more than %d lower cells unfinished (start order %v)",
				slots, i-1, slots-1, log.order)
		}
		if slots == 1 {
			for p, i := range log.order {
				if i != p {
					t.Fatalf("one slot: start order %v", log.order)
				}
			}
		}
	}
}

// TestRunnerDeliversInIndexOrder: completion order is shuffled on purpose
// (every cell runs at once and each is released by hand in a random
// order); delivery is still strictly 0, 1, 2, ...
func TestRunnerDeliversInIndexOrder(t *testing.T) {
	const n = 32
	release := make([]chan struct{}, n)
	for i := range release {
		release[i] = make(chan struct{})
	}
	var running sync.WaitGroup
	running.Add(n)
	go func() {
		running.Wait() // all n cells are in flight
		for _, i := range rand.New(rand.NewSource(7)).Perm(n) {
			close(release[i])
			time.Sleep(50 * time.Microsecond)
		}
	}()
	var delivered []int
	r := NewRunner(context.Background(), make(chan struct{}, n), n)
	if err := r.Run(allLocal(n), func(i int) {
		running.Done()
		<-release[i]
	}, func(i int) error {
		delivered = append(delivered, i)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, d := range delivered {
		if d != i {
			t.Fatalf("delivery order %v", delivered)
		}
	}
	if len(delivered) != n {
		t.Fatalf("delivered %d of %d cells", len(delivered), n)
	}
}

// TestRunnerFirstErrorIsLowestIndex: indices 5 and 20 fail. Whatever the
// scheduling, the error reported is index 5's — delivery is in index order
// and stops at the first failure — and nothing is delivered after it.
func TestRunnerFirstErrorIsLowestIndex(t *testing.T) {
	for _, slots := range []int{1, 3, 16} {
		errs := make([]error, 40)
		last := -1
		r := NewRunner(context.Background(), make(chan struct{}, slots), len(errs))
		err := r.Run(allLocal(len(errs)), func(i int) {
			if i == 5 || i == 20 {
				errs[i] = fmt.Errorf("cell %d failed", i)
			}
		}, func(i int) error {
			last = i
			return errs[i]
		})
		if err == nil || err.Error() != "cell 5 failed" {
			t.Fatalf("slots=%d: got %v, want cell 5's error", slots, err)
		}
		if last != 5 {
			t.Fatalf("slots=%d: delivery went on to cell %d after the failure", slots, last)
		}
	}
}

// TestRunnerStopsDispatchAfterError: a failure at index 0 of a very long
// sweep ends the handout, it does not run the sweep out. The failing cell
// halts the sweep itself, as runCells' cells do; cells already holding the
// other slots may finish, nothing else starts.
func TestRunnerStopsDispatchAfterError(t *testing.T) {
	var ran atomic.Int32
	failed := errors.New("boom")
	r := NewRunner(context.Background(), make(chan struct{}, 4), 10_000)
	err := r.Run(allLocal(10_000), func(i int) {
		ran.Add(1)
		if i == 0 {
			r.Halt()
		}
	}, func(i int) error {
		if i == 0 {
			return failed
		}
		return nil
	})
	if err != failed {
		t.Fatalf("err = %v, want the index-0 failure", err)
	}
	if n := ran.Load(); n > 100 {
		t.Fatalf("dispatch did not stop: %d cells ran after an index-0 failure", n)
	}
}

// TestRunnerHaltIsStrictWithOneSlot: a cell that halts the sweep before it
// returns is the last cell to start — deterministically, not usually — so
// one slot on the Runner stops at a failed cell exactly as a sequential loop
// does. (Leaving the stop to deliver's error would race the freed slot.)
func TestRunnerHaltIsStrictWithOneSlot(t *testing.T) {
	failed := errors.New("cell 3 failed")
	for round := 0; round < 200; round++ {
		var last atomic.Int32
		r := NewRunner(context.Background(), make(chan struct{}, 1), 10)
		err := r.Run(allLocal(10), func(i int) {
			last.Store(int32(i))
			if i == 3 {
				r.Halt()
			}
		}, func(i int) error {
			if i == 3 {
				return failed
			}
			return nil
		})
		if err != failed || last.Load() != 3 {
			t.Fatalf("round %d: err = %v, last cell started = %d; want cell 3's error and nothing after it",
				round, err, last.Load())
		}
	}
}

// TestRunnerCancelDeliversCleanPrefix: cancellation mid-sweep delivers
// exactly the cells before the first one that never ran, in order, and
// Run's error names that cell and wraps the context's.
func TestRunnerCancelDeliversCleanPrefix(t *testing.T) {
	const n, cancelAt = 50, 17
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran [n]atomic.Bool
	var delivered []int
	r := NewRunner(ctx, make(chan struct{}, 3), n)
	err := r.Run(allLocal(n), func(i int) {
		ran[i].Store(true)
		if i == cancelAt {
			cancel()
		}
	}, func(i int) error {
		delivered = append(delivered, i)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want one wrapping context.Canceled", err)
	}
	firstSkipped := 0
	for firstSkipped < n && ran[firstSkipped].Load() {
		firstSkipped++
	}
	if firstSkipped <= cancelAt || firstSkipped == n {
		t.Fatalf("first cell that never ran is %d; the cancel came from cell %d of %d", firstSkipped, cancelAt, n)
	}
	if want := fmt.Sprintf("before cell %d:", firstSkipped); !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %v, want it to name cell %d", err, firstSkipped)
	}
	if len(delivered) != firstSkipped {
		t.Fatalf("delivered %v, want exactly cells 0..%d", delivered, firstSkipped-1)
	}
	for i, d := range delivered {
		if d != i {
			t.Fatalf("delivery order %v", delivered)
		}
	}
}

// TestRunnerResolvedCellsTakeNoSlot: with the only slot held by cell 0,
// pre-resolved cells (cached, replayed) and one resolved from another
// goroutine mid-run (a remote shard) all reach the sequencer, and none of
// them delays the local cells: cell 2 starts as soon as cell 0 ends even
// though cell 1, resolved remotely, is still outstanding.
func TestRunnerResolvedCellsTakeNoSlot(t *testing.T) {
	const n = 6 // local: 0, 2; pre-resolved: 3, 4, 5; remote: 1
	slots := make(chan struct{}, 1)
	r := NewRunner(context.Background(), slots, n)
	for _, i := range []int{3, 4, 5} {
		r.Resolve(i)
	}
	if len(slots) != 0 {
		t.Fatal("a pre-resolved cell took a slot")
	}
	cell2Started := make(chan struct{})
	go func() {
		// The remote result arrives only after local cell 2 has started.
		<-cell2Started
		r.Resolve(1)
	}()
	var delivered []int
	err := r.Run([]int{0, 2}, func(i int) {
		if i == 2 {
			close(cell2Started)
		}
	}, func(i int) error {
		delivered = append(delivered, i)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(delivered) != "[0 1 2 3 4 5]" {
		t.Fatalf("delivered %v", delivered)
	}
}

// TestRunnerFollowSharesLead: followers sit between local cells (local 0,
// 2, 4; cells 1 and 3 follow 0, cell 5 follows 2). They never run and take
// no slot, so with one slot at most one cell runs at a time; they are
// delivered in index order, each after its lead, and see what the lead's
// run stored.
func TestRunnerFollowSharesLead(t *testing.T) {
	const n = 6
	follow := map[int]int{1: 0, 3: 0, 5: 2}
	for round := 0; round < 20; round++ {
		var ran [n]atomic.Int32
		var running atomic.Int32
		var overlap atomic.Bool
		var stored [n]int
		var delivered []int
		r := NewRunner(context.Background(), make(chan struct{}, 1), n)
		for j, i := range follow {
			r.Follow(j, i)
		}
		err := r.Run([]int{0, 2, 4}, func(i int) {
			if running.Add(1) > 1 {
				overlap.Store(true)
			}
			ran[i].Add(1)
			time.Sleep(50 * time.Microsecond)
			stored[i] = 100 + i
			running.Add(-1)
		}, func(i int) error {
			if l, ok := follow[i]; ok {
				stored[i] = stored[l]
			}
			delivered = append(delivered, i)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if overlap.Load() {
			t.Fatal("two cells ran at once on one slot")
		}
		for i := range ran {
			_, follower := follow[i]
			if n := ran[i].Load(); follower && n != 0 || !follower && n != 1 {
				t.Fatalf("cell %d (follower %v) ran %d times", i, follower, n)
			}
		}
		if fmt.Sprint(delivered) != "[0 1 2 3 4 5]" {
			t.Fatalf("delivered %v", delivered)
		}
		if fmt.Sprint(stored) != "[100 100 102 100 104 102]" {
			t.Fatalf("stored %v: a follower did not see its lead's result", stored)
		}
	}
}

// TestRunnerFollowCanceledBeforeLead: a sweep canceled before a lead
// starts skips the lead's followers with it. Run returns the error naming
// the lead as the first cell that never ran, having delivered exactly the
// cells before it, instead of waiting for followers nothing would report.
func TestRunnerFollowCanceledBeforeLead(t *testing.T) {
	const n = 5 // local 0, 1; cells 2, 3, 4 follow 1
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := NewRunner(ctx, make(chan struct{}, 1), n)
	for _, j := range []int{2, 3, 4} {
		r.Follow(j, 1)
	}
	var leadRan atomic.Bool
	var delivered []int
	done := make(chan error, 1)
	go func() {
		done <- r.Run([]int{0, 1}, func(i int) {
			if i == 0 {
				cancel()
			} else {
				leadRan.Store(true)
			}
		}, func(i int) error {
			delivered = append(delivered, i)
			return nil
		})
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "canceled before cell 1:") {
			t.Fatalf("err = %v, want the sweep canceled before cell 1", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run still waiting 10s after the sweep was canceled before its lead started")
	}
	if leadRan.Load() {
		t.Fatal("the lead started after the sweep was canceled")
	}
	if fmt.Sprint(delivered) != "[0]" {
		t.Fatalf("delivered %v, want [0]", delivered)
	}
}
