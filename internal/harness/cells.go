package harness

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/hbcheck"
	"repro/internal/interconnect"
	"repro/internal/mem"
	"repro/internal/sanitize"
)

// errCellPanic marks an error recovered from a panicking cell body, so
// runCells can journal it with the "panic" status.
var errCellPanic = errors.New("harness: cell panicked")

// ctx returns the Options context, defaulting to Background.
func (o Options) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// cellCtx is handed to each cell body. Every machine a cell runs is built
// through it (runMachine), which is what makes the per-cell wall-clock
// deadline and the sweep's context apply to every experiment.
type cellCtx struct {
	opt  Options
	stop *atomic.Bool // set when the cell's deadline passes
}

// onFabric returns the same cell — same deadline, same context — building
// its machines on another interconnect (the scaling sweep's cells).
func (c *cellCtx) onFabric(f interconnect.Kind) *cellCtx {
	o := c.opt
	o.Fabric = f
	return &cellCtx{opt: o, stop: c.stop}
}

// Config builds the cell's machine configuration. The machine's stop check
// is the cell's deadline flag or the sweep's context, whichever comes first.
func (c *cellCtx) Config(cores int) core.Config {
	opt := c.opt
	cfg := core.DefaultConfig(cores)
	cfg.Mem.Fabric = opt.Fabric
	if opt.FilterCap > 0 {
		cfg.Mem.FilterCap = opt.FilterCap
	}
	cfg.NoFastPath = opt.NoFastPath
	cfg.NoTranslate = opt.NoTranslate
	if opt.Sanitize {
		cfg.Sanitize = sanitize.Default()
	}
	if opt.HBCheck {
		cfg.HB = &hbcheck.Config{}
	}
	if opt.Ctx != nil || opt.CellDeadline > 0 {
		done := opt.ctx().Done() // nil, so never ready, without a context
		cfg.StopCheck = func() bool {
			select {
			case <-done:
				return true
			default:
				return c.stop.Load()
			}
		}
	}
	return cfg
}

// runCell runs one cell body with the deadline timer armed and panics
// converted to errors, so one bad cell cannot take down a whole sweep. A
// panic carrying a configuration error (mem.ErrConfig) keeps its identity
// so callers can tell a bad machine geometry from a simulator bug.
func runCell[T any](opt Options, fn func(ctx *cellCtx) (T, error)) (data T, err error) {
	ctx := &cellCtx{opt: opt, stop: new(atomic.Bool)}
	if opt.CellDeadline > 0 {
		t := time.AfterFunc(opt.CellDeadline, func() { ctx.stop.Store(true) })
		defer t.Stop()
	}
	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(error); ok {
				err = fmt.Errorf("%w: %w", errCellPanic, e)
			} else {
				err = fmt.Errorf("%w: %v", errCellPanic, r)
			}
		}
	}()
	return fn(ctx)
}

// StatusOf classifies a cell error into the journal's status vocabulary —
// StatusOK, StatusTimeout (a core.ErrStopped stop check), StatusPanic (a
// recovered cell panic), or StatusError. External cell drivers (the simd
// server) use it so their records classify exactly like journaled sweeps.
func StatusOf(err error) string {
	switch {
	case err == nil:
		return StatusOK
	case errors.Is(err, core.ErrStopped):
		return StatusTimeout
	case errors.Is(err, errCellPanic):
		if errors.Is(err, mem.ErrConfig) {
			return StatusError // a bad configuration, not a crash
		}
		return StatusPanic
	default:
		return StatusError
	}
}

// Canceled reports whether a cell error means the sweep was torn down (ctx,
// the sweep's context, ended) rather than the cell hitting its own
// deadline. Canceled cells are never journaled or cached: a resubmission
// re-runs them, exactly as it re-runs cells lost to a kill.
func Canceled(ctx context.Context, err error) bool {
	return errors.Is(err, core.ErrStopped) && ctx.Err() != nil
}

// runCells runs n independent cells on the Runner, Options.Workers slots
// wide, with per-cell panic recovery, the optional wall-clock deadline, and
// prompt teardown when Options.Ctx is canceled (no new cells start;
// in-flight cells stop at their next stop-check poll).
//
// Without a journal (keys nil or Options.JournalPath empty) the first
// failing cell, in index order, ends the sweep and is the error returned.
//
// With a journal — opened under the content hash of spec, so a resume of a
// different sweep is refused — every cell runs (errors don't stop the
// sweep), each outcome is appended to the journal as it is delivered, that
// is in cell index order; cells already journaled are not run — their
// results are replayed through replay(i, data) — and the lowest-index
// failure (fresh or journaled) is returned at the end. Cells aborted by
// context cancellation are never journaled and end the sweep: the journal
// stays a clean prefix and a resume re-runs them, exactly as it re-runs
// cells lost to a kill.
func runCells(opt Options, spec string, n int, keys []string, fn func(i int, ctx *cellCtx) (any, error), replay func(i int, data json.RawMessage) error) error {
	var j *Journal
	if opt.JournalPath != "" && keys != nil {
		var err error
		j, err = OpenJournal(opt.JournalPath, opt.Resume, spec)
		if err != nil {
			return fmt.Errorf("harness: journal %s: %w", opt.JournalPath, err)
		}
		defer j.Close()
	}
	type outcome struct {
		data     any
		err      error
		replayed *Entry
	}
	outs := make([]outcome, n)
	r := NewRunner(opt.ctx(), make(chan struct{}, opt.workerCount()), n)
	local := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if j != nil {
			if e, ok := j.Done(keys[i]); ok {
				outs[i].replayed = &e
				r.Resolve(i)
				continue
			}
		}
		local = append(local, i)
	}
	var failed error // a journaled sweep's lowest-index failing cell
	err := r.Run(local, func(i int) {
		outs[i].data, outs[i].err = runCell(opt, func(ctx *cellCtx) (any, error) { return fn(i, ctx) })
		if j == nil && outs[i].err != nil {
			r.Halt() // this cell ends the sweep: nothing may start behind it
		}
	}, func(i int) error {
		o := outs[i]
		if j == nil {
			return o.err
		}
		var cellErr error
		switch e := o.replayed; {
		case e != nil && e.Status == StatusOK:
			if replay != nil {
				if err := replay(i, e.Data); err != nil {
					return fmt.Errorf("harness: journal %s: replaying %q: %w", opt.JournalPath, keys[i], err)
				}
			}
		case e != nil:
			cellErr = fmt.Errorf("harness: %s: journaled %s: %s", keys[i], e.Status, e.Error)
		case Canceled(opt.ctx(), o.err):
			// The sweep is being torn down (an aborted request, a server
			// shutdown, ^C), not a cell over its own deadline: leave no
			// record so a resume re-runs this cell, and stop the sweep.
			return fmt.Errorf("harness: %s: sweep canceled: %w", keys[i], o.err)
		default:
			entry := Entry{Key: keys[i], Status: StatusOf(o.err)}
			if o.err != nil {
				entry.Error = o.err.Error()
				cellErr = fmt.Errorf("harness: %s: %w", keys[i], o.err)
			} else {
				raw, merr := json.Marshal(o.data)
				if merr != nil {
					return fmt.Errorf("harness: journal %s: encoding %q: %w", opt.JournalPath, keys[i], merr)
				}
				entry.Data = raw
			}
			if err := j.Write(entry); err != nil {
				return err
			}
		}
		if failed == nil {
			failed = cellErr
		}
		return nil
	})
	if err != nil {
		return err
	}
	return failed
}
