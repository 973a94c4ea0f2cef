package harness

import (
	"context"
	"fmt"
	"runtime"
)

// workerCount resolves the Workers option: 0 means one slot per CPU,
// anything else is taken literally.
func (o Options) workerCount() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.NumCPU()
}

// Runner runs the cells of one sweep, indices 0..n-1, and is the only
// dispatch loop and the only reorder buffer under the harness and the simd
// server. Its ordering contract:
//
//   - Dispatch. Local cells start in increasing index order, each holding
//     one slot for as long as it runs. The slot set may be shared with other
//     Runners (simd's global Workers bound), so with W slots cell i never
//     starts before cell i-W has, and with one slot the sweep is the plain
//     sequential loop.
//   - Resolution. A cell whose result comes from elsewhere — a journal
//     replay, a cache hit; the one seam a result computed on another
//     machine would enter through — is marked with Resolve: it takes no
//     slot and never waits behind (or holds up) a local cell.
//   - Following. A cell whose result is another local cell's (simd's
//     fault-free cells that differ only in an unread seed) is marked with
//     Follow: it takes no slot, finishes when its lead finishes and is
//     skipped when its lead is skipped.
//   - Delivery. Run hands every index to deliver strictly in index order on
//     the calling goroutine, whatever order cells finish in. Results
//     themselves travel in slots the caller indexes by cell; the Runner only
//     sequences. The first error deliver returns ends delivery and halts
//     dispatch (cells already running finish, unobserved), so the error a
//     sweep reports is its lowest-index one at any slot count.
//   - Cancellation. Once ctx is done, or the sweep is halted, no further
//     cell starts, and delivery ends at the first index that never ran:
//     what was delivered is a clean prefix of the sweep.
//
// Every index must be accounted for exactly once — listed in Run's local
// set, passed to Resolve, or passed to Follow as the follower — which is
// also what lets Run return only after every goroutine it started has
// finished.
type Runner struct {
	ctx     context.Context // done once nothing more may start: canceled, or halted
	halt    context.CancelFunc
	slots   chan struct{}
	n       int
	done    chan cellDone // capacity n: reporting a finished cell never blocks
	follows map[int][]int // lead → its followers, set before Run
}

// cellDone reports one index to the sequencer: finished, or skipped for a
// local cell that was never started. The zero state is a cell still
// outstanding.
type cellDone struct {
	idx   int
	state uint8
}

const (
	finished uint8 = iota + 1
	skipped
)

// NewRunner prepares a sweep of n cells whose local cells each hold one
// element of slots while they run.
func NewRunner(ctx context.Context, slots chan struct{}, n int) *Runner {
	r := &Runner{slots: slots, n: n, done: make(chan cellDone, n)}
	r.ctx, r.halt = context.WithCancel(ctx)
	return r
}

// Resolve marks cell i finished without running it here. It may be called
// before Run or, from any goroutine, while Run is in progress; whatever the
// caller stores for the cell before the call is visible to deliver.
func (r *Runner) Resolve(i int) { r.done <- cellDone{i, finished} }

// Follow makes cell j share local cell i's fate: j is never run, finishes
// when i finishes and is skipped when i is skipped. It must be called
// before Run, with i in Run's local set; deliver(j) comes after run(i) has
// returned, so whatever run(i) stored is visible to it.
func (r *Runner) Follow(j, i int) {
	if r.follows == nil {
		r.follows = make(map[int][]int)
	}
	r.follows[i] = append(r.follows[i], j)
}

// Halt ends dispatch: no cell starts after it returns, and cells already
// running are left to finish. Run halts the sweep itself when deliver
// fails; a cell whose own outcome ends the sweep calls it before returning,
// because its slot is free the moment it does — with one slot that is the
// difference between stopping at the failed cell, as a sequential loop
// would, and starting one more.
func (r *Runner) Halt() { r.halt() }

// Run starts run(i) for every i in local (increasing) as slots allow and
// calls deliver(i) for every index of the sweep in index order. It returns
// deliver's first error, or — when the sweep was canceled or halted before
// that — an error naming the first cell that never ran.
func (r *Runner) Run(local []int, run func(i int), deliver func(i int) error) error {
	defer r.halt()
	go r.dispatch(local, run)

	state := make([]uint8, r.n)
	next := 0
	var err error
	for got := 0; got < r.n; {
		d := <-r.done
		state[d.idx] = d.state
		got++
		for _, j := range r.follows[d.idx] {
			state[j] = d.state
			got++
		}
		for err == nil && next < r.n && state[next] != 0 {
			if state[next] == skipped {
				err = fmt.Errorf("harness: sweep canceled before cell %d: %w", next, r.ctx.Err())
			} else if err = deliver(next); err != nil {
				r.halt()
			}
			next++
		}
	}
	return err
}

// dispatch hands the local cells out in order, one goroutine per running
// cell, and reports the rest as never started once the sweep is over.
func (r *Runner) dispatch(local []int, run func(i int)) {
	for k, i := range local {
		if !r.acquire() {
			for _, rest := range local[k:] {
				r.done <- cellDone{rest, skipped}
			}
			return
		}
		go func() {
			// Deferred, so a cell that exits its goroutine (a test's
			// t.Fatal) still frees its slot and is still accounted for.
			defer func() {
				<-r.slots
				r.done <- cellDone{i, finished}
			}()
			run(i)
		}()
	}
}

// acquire takes a slot unless the sweep ended first.
func (r *Runner) acquire() bool {
	select {
	case r.slots <- struct{}{}:
	case <-r.ctx.Done():
		return false
	}
	// select chooses at random among ready cases, and a slot often frees at
	// the very moment a sweep ends (the cell holding it noticed the
	// cancellation, or halted the sweep): the end of the sweep wins.
	if r.ctx.Err() != nil {
		<-r.slots
		return false
	}
	return true
}
