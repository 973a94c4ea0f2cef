package harness

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/mem"
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

// machineConfig is the configuration of a cores-core machine under o: its
// fabric, filter-table capacity and simulator toggles.
func (o Options) machineConfig(cores int) core.Config {
	cfg := core.DefaultConfig(cores)
	cfg.Mem.Fabric = o.Fabric
	if o.FilterCap > 0 {
		cfg.Mem.FilterCap = o.FilterCap
	}
	cfg.NoFastPath = o.NoFastPath
	cfg.NoTranslate = o.NoTranslate
	return cfg
}

// Config builds the cell's machine configuration.
func (c *cellCtx) Config(cores int) core.Config { return c.stoppable(c.opt.machineConfig(cores)) }

// stoppable returns cfg with the cell's stop check: the cell's deadline
// flag or the sweep's context, whichever comes first.
func (c *cellCtx) stoppable(cfg core.Config) core.Config {
	if c.opt.Ctx != nil || c.opt.CellDeadline > 0 {
		done := c.opt.ctx().Done() // nil, so never ready, without a context
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
// in-flight cells stop at their next stop-check poll). It returns every
// cell's result in slot i, the slots of cells that failed or never ran
// included, whatever the error.
//
// Without a journal (keys nil or Options.JournalPath empty) the first
// failing cell, in index order, ends the sweep and is the error returned.
//
// With a journal — opened under the content hash of spec, so a resume of a
// different sweep is refused — every cell runs (errors don't stop the
// sweep), each outcome is appended to the journal as it is delivered, that
// is in cell index order, its result encoded as JSON; cells already
// journaled are not run — their records are decoded into their slots — and
// the lowest-index failure (fresh or journaled) is returned at the end.
// Cells aborted by context cancellation are never journaled and end the
// sweep: the journal stays a clean prefix and a resume re-runs them,
// exactly as it re-runs cells lost to a kill.
func runCells[T any](opt Options, spec string, keys []string, n int, run func(i int, c *cellCtx) (T, error)) ([]T, error) {
	out := make([]T, n)
	var j *Journal
	if opt.JournalPath != "" && keys != nil {
		var err error
		j, err = OpenJournal(opt.JournalPath, opt.Resume, spec)
		if err != nil {
			return out, fmt.Errorf("harness: journal %s: %w", opt.JournalPath, err)
		}
		defer j.Close()
	}
	errs := make([]error, n)
	replayed := make([]*Entry, n)
	r := NewRunner(opt.ctx(), make(chan struct{}, opt.workerCount()), n)
	local := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if j != nil {
			if e, ok := j.Done(keys[i]); ok {
				replayed[i] = &e
				r.Resolve(i)
				continue
			}
		}
		local = append(local, i)
	}
	var failed error // a journaled sweep's lowest-index failing cell
	err := r.Run(local, func(i int) {
		out[i], errs[i] = runCell(opt, func(c *cellCtx) (T, error) { return run(i, c) })
		if j == nil && errs[i] != nil {
			r.Halt() // this cell ends the sweep: nothing may start behind it
		}
	}, func(i int) error {
		if j == nil {
			return errs[i]
		}
		var cellErr error
		switch e := replayed[i]; {
		case e != nil && e.Status == StatusOK:
			if err := json.Unmarshal(e.Data, &out[i]); err != nil {
				return fmt.Errorf("harness: journal %s: replaying %q: %w", opt.JournalPath, keys[i], err)
			}
		case e != nil:
			cellErr = fmt.Errorf("harness: %s: journaled %s: %s", keys[i], e.Status, e.Error)
		case Canceled(opt.ctx(), errs[i]):
			// The sweep is being torn down (an aborted request, a server
			// shutdown, ^C), not a cell over its own deadline: leave no
			// record so a resume re-runs this cell, and stop the sweep.
			return fmt.Errorf("harness: %s: sweep canceled: %w", keys[i], errs[i])
		default:
			entry := Entry{Key: keys[i], Status: StatusOf(errs[i])}
			if errs[i] != nil {
				entry.Error = errs[i].Error()
				cellErr = fmt.Errorf("harness: %s: %w", keys[i], errs[i])
			} else {
				raw, merr := json.Marshal(out[i])
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
		return out, err
	}
	return out, failed
}
