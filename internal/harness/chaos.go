package harness

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/barrier"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/filter"
	"repro/internal/kernels"
	"repro/internal/osmodel"
)

// ChaosOptions configures the chaos differential matrix.
type ChaosOptions struct {
	Options
	// Seed is the master seed; every cell and attempt derives its own
	// injector seed from it, so one number replays the whole matrix
	// byte-identically at any worker count.
	Seed uint64
	// Threads is the SPMD thread count per cell (default 8). Preemption
	// profiles get one spare core to migrate preempted threads onto.
	Threads int
	// Kinds are the barrier mechanisms swept (default: the two D-cache
	// filter variants, the mechanisms with a degradation path).
	Kinds []barrier.Kind
	// Profiles are the injector profiles swept (default faults.Profiles).
	Profiles []faults.Profile
}

// DefaultChaosOptions returns the standard matrix: small kernels, every
// standard injector profile, a 2M-cycle budget per cell.
func DefaultChaosOptions() ChaosOptions {
	o := ChaosOptions{Options: QuickOptions(), Seed: 1, Threads: 8}
	o.MaxCycles = 2_000_000
	o.Kinds = []barrier.Kind{barrier.KindFilterD, barrier.KindFilterDPP}
	o.Profiles = faults.Profiles()
	return o
}

// ChaosCell is one (kernel x mechanism x profile) result. The contract has
// exactly two acceptable outcomes: results bit-identical to the fault-free
// run ("identical", or "degraded" when the software fallback produced
// them), or a clean attributed fault report ("fault") before the cycle
// budget. Anything else — silent corruption, an unexplained failure — makes
// RunChaos itself return an error.
type ChaosCell struct {
	Kernel   string
	Kind     barrier.Kind
	Profile  string
	Outcome  string // "identical" | "degraded" | "fault"
	Attempts int
	Injected uint64 // faults injected (preemptions included)
	Cycles   uint64 // total simulated cycles across attempts
	Report   string // attribution ("" when identical and nothing injected)
}

// chaosKernels returns the kernel set of the matrix: the pure barrier
// stressor plus two data kernels whose Verify makes "bit-identical to the
// fault-free run" checkable against the Go reference.
func chaosKernels() []kernels.Kernel {
	return []kernels.Kernel{
		&kernels.Microbench{K: 4, M: 2},
		kernels.NewLivermore3(96, 2),
		kernels.NewViterbi(24, 2),
	}
}

// RunChaos sweeps the matrix. Cells are independent machines, keyed by
// index, so output is identical at any worker count.
func RunChaos(opt ChaosOptions) ([]ChaosCell, error) {
	if opt.Threads == 0 {
		opt.Threads = 8
	}
	if len(opt.Kinds) == 0 {
		opt.Kinds = []barrier.Kind{barrier.KindFilterD, barrier.KindFilterDPP}
	}
	if len(opt.Profiles) == 0 {
		opt.Profiles = faults.Profiles()
	}
	type cellSpec struct {
		k    kernels.Kernel
		kind barrier.Kind
		p    faults.Profile
	}
	var specs []cellSpec
	for _, k := range chaosKernels() {
		for _, kind := range opt.Kinds {
			for _, p := range opt.Profiles {
				specs = append(specs, cellSpec{k, kind, p})
			}
		}
	}
	keys := make([]string, len(specs))
	for i, sp := range specs {
		keys[i] = fmt.Sprintf("chaos/%s/%s/%s", sp.k.Name(), sp.kind, sp.p.Name)
	}
	spec := fmt.Sprintf("chaos seed=%d threads=%d kinds=%v profiles=%d cells=%v%s",
		opt.Seed, opt.Threads, opt.Kinds, len(opt.Profiles), keys, opt.Options.spec())
	return runCells(opt.Options, spec, keys, len(specs), func(i int, c *cellCtx) (ChaosCell, error) {
		return c.chaosCell(specs[i].k, specs[i].kind, specs[i].p,
			faults.MixSeed(opt.Seed, uint64(i)+0x9000), opt.Threads)
	})
}

// RunChaosCell runs one (kernel × mechanism × profile × seed) cell — the
// unit RunChaos sweeps — standalone on nthreads SPMD threads, with the
// per-cell panic recovery and wall-clock deadline the sweep would give it.
// External drivers (the simd server) use it to run arbitrary cells through
// the degradation policy; the returned ChaosCell is valid (with whatever was
// learned) even when err is non-nil, unless the cell panicked. The result
// is deterministic in (cell identity, seed, nthreads, opt.MaxCycles):
// worker counts, deadlines, and the simulator fast-path and translation
// toggles never change a byte of it.
func RunChaosCell(k kernels.Kernel, kind barrier.Kind, p faults.Profile, seed uint64, nthreads int, opt Options) (ChaosCell, error) {
	return runCell(opt, func(c *cellCtx) (ChaosCell, error) { return c.chaosCell(k, kind, p, seed, nthreads) })
}

// ChaosConfig is the machine a chaos cell of profile p on nthreads SPMD
// threads runs on under opt. The chaos sweep builds its attempts from it,
// and the simd server validates it before any cell runs.
func ChaosConfig(p faults.Profile, nthreads int, opt Options) core.Config {
	cores := nthreads
	if p.WantsPreemption() {
		cores++ // a spare core to migrate preempted threads onto
	}
	cfg := opt.machineConfig(cores)
	cfg.FilterStrict = true
	// The paper's hardware timeout stays armed under chaos: it is the
	// last line of defense turning starvation into an attributable fault.
	cfg.FilterTimeout = 100_000
	if p.FilterCapOverride > 0 {
		// Allocation-flood cells shrink the per-bank filter table so the
		// install path itself must spill to the software barrier.
		cfg.Mem.FilterCap = p.FilterCapOverride
	}
	return cfg
}

// The degradation policy of a chaos cell, the runtime step between the
// paper's hardware timeout (§3.3.4), which turns a starved fill into an
// error response, and its OS fallback to a software barrier (§3.3.1): a
// faulted filter is re-armed chaosRetries times with doubling backoff, each
// time on a fresh machine (a faulted attempt's filter, directory and
// program state are untrusted, and switching mechanism mid-barrier cannot
// be made safe), and then degraded to chaosFallback. Attempts and backoff
// share the cell's MaxCycles, so a fault is a report before the budget.
const (
	chaosRetries  = 2                     // re-arms of a faulted filter before degrading
	chaosBackoff  = 10_000                // cycles charged before re-arm k: chaosBackoff << (k-1)
	chaosFallback = barrier.KindSWCentral // the mechanism a filter degrades to
)

// unrecoverable is an attempt failure the policy must not retry: a setup
// failure (a retry would build the same machine) or, when corrupt, result
// corruption found by verification (a retry would mask it). Its text keeps
// the "barrier:" prefix that journaled reports carry.
type unrecoverable struct {
	corrupt bool
	err     error
}

func (u unrecoverable) Error() string {
	return "barrier: unrecoverable attempt failure: " + u.err.Error()
}

// chaosCell runs one chaos cell of profile p on nthreads SPMD threads.
func (c *cellCtx) chaosCell(k kernels.Kernel, kind barrier.Kind, p faults.Profile,
	seed uint64, nthreads int) (ChaosCell, error) {
	cell := ChaosCell{Kernel: k.Name(), Kind: kind, Profile: p.Name}
	a := chaosAttempt{c: c, cfg: c.stoppable(ChaosConfig(p, nthreads, c.opt)), k: k, p: p,
		seed: seed, nthreads: nthreads, what: fmt.Sprintf("chaos %s/%s", k.Name(), kind)}
	err := runChaosCell(&cell, p, c.opt.MaxCycles, a.run)
	return cell, err
}

// runChaosCell runs cell's attempts under the degradation policy and holds
// their outcome to the chaos contract, filling cell's Attempts, Cycles,
// Injected, Outcome and Report. A filter kind gets 1+chaosRetries attempts
// and then one on chaosFallback; any other kind runs once, as it has
// nothing to degrade to. Each attempt gets an even share of the budget
// left. The plan ends on success, on an unrecoverable failure, on a stop
// from outside (core.ErrStopped, which the returned error then wraps), or
// when the budget is spent. Corruption, a stop and a failed fault-free
// cell are errors; any other failure is the attributed "fault" outcome.
//
// attempt runs try number try of the plan on kind within budget cycles. It
// returns the cycles it consumed, the faults its injector applied and that
// injector's attribution ("" when it ran none), and the attempt's failure.
func runChaosCell(cell *ChaosCell, p faults.Profile, maxCycles uint64,
	attempt func(kind barrier.Kind, try int, budget uint64) (cycles, injected uint64, attr string, err error)) error {
	plan := []barrier.Kind{cell.Kind}
	if barrier.SlotsNeeded(cell.Kind) > 0 {
		for range chaosRetries {
			plan = append(plan, cell.Kind)
		}
		plan = append(plan, chaosFallback)
	}
	var lines []byte   // one line per attempt, but a last identical one
	var attrs []string // one entry per attempt that ran an injector
	fault := func(head string) error {
		if !p.Active() {
			return fmt.Errorf("chaos: %s/%s/%s: fault-free cell failed: %s:\n%s",
				cell.Kernel, cell.Kind, cell.Profile, head, string(lines))
		}
		cell.Outcome = "fault"
		cell.Report = head + ":\n" + string(lines) + "\n  " + strings.Join(attrs, "\n  ")
		return nil
	}
	remaining := maxCycles
	for i, kind := range plan {
		if i > 0 {
			wait := uint64(chaosBackoff) << (i - 1)
			if wait >= remaining {
				break
			}
			cell.Cycles += wait
			remaining -= wait
		}
		budget := remaining / uint64(len(plan)-i)
		if budget == 0 {
			break
		}
		cycles, injected, attr, err := attempt(kind, i, budget)
		cycles = min(cycles, budget) // an attempt must not overrun; clamp the accounting
		cell.Attempts++
		cell.Cycles += cycles
		cell.Injected += injected
		remaining -= cycles
		if attr != "" {
			attrs = append(attrs, fmt.Sprintf("attempt %d %s", len(attrs), attr))
		}
		if err == nil && kind == cell.Kind {
			cell.Outcome = "identical"
			if cell.Injected > 0 {
				cell.Report = strings.Join(attrs, "\n  ")
			}
			return nil
		}
		status := "ok"
		if err != nil {
			status = err.Error()
		}
		lines = fmt.Appendf(lines, "  attempt %d [%s] %d/%d cycles: %s\n", i, kind, cycles, budget, status)
		var u unrecoverable
		switch {
		case err == nil:
			cell.Outcome = "degraded"
			cell.Report = fmt.Sprintf("%s  degraded to %s\n  %s", string(lines), kind, strings.Join(attrs, "\n  "))
			return nil
		case errors.As(err, &u):
			if u.corrupt {
				return fmt.Errorf("chaos: %s/%s/%s: silent data corruption: %s", cell.Kernel, cell.Kind, cell.Profile, status)
			}
			return fault("barrier: resilient run aborted")
		case errors.Is(err, core.ErrStopped):
			// A wall-clock deadline or a torn-down sweep, not a failure of
			// the mechanism: a retry would be stopped the same way, and the
			// sweep journals the cell as timed out (or not at all).
			return fmt.Errorf("chaos: %s/%s/%s: barrier: resilient run stopped: %w:\n%s",
				cell.Kernel, cell.Kind, cell.Profile, err, string(lines))
		}
	}
	return fault(fmt.Sprintf("barrier: resilient run failed after %d attempts", cell.Attempts))
}

// chaosAttempt is the simulator half of a chaos cell. Each run boots a
// fresh machine from cfg through the lifecycle every cell shares, attaches
// the profile's injector, starts the threads (through the OS model when the
// profile preempts, driven by runPreemptPlan) and verifies the results.
// Setup and verify failures are unrecoverable; a full sync table
// (filter.ErrNoCapacity) is the designed degradation and passes through to
// the fallback.
type chaosAttempt struct {
	c        *cellCtx
	cfg      core.Config
	k        kernels.Kernel
	p        faults.Profile
	seed     uint64
	nthreads int
	what     string // names the cell in build and vet errors
}

func (a *chaosAttempt) run(kind barrier.Kind, try int, budget uint64) (cycles, injected uint64, attr string, err error) {
	m, gen, prog, err := a.c.boot(a.what, a.cfg, a.nthreads, parBuild(a.k, kind, a.nthreads))
	if errors.Is(err, filter.ErrNoCapacity) {
		// Not corruption: the software fallback installs no filter
		// entries, which frees the bank's table for the program's locks.
		return 0, 0, "", err
	} else if err != nil {
		return 0, 0, "", unrecoverable{err: err}
	}
	if a.p.Active() {
		inj := faults.New(a.p, faults.MixSeed(a.seed, uint64(try)+1), m.Sys, a.cfg.Cores)
		inj.SetPrimitives(m.Primitives())
		inj.SetFillTargets(fillTargets(gen))
		defer func() { // on every return from here on
			injected += inj.TotalInjected()
			attr = attribution(inj)
		}()
	}
	if a.p.WantsPreemption() {
		sched := osmodel.NewScheduler(m)
		for t := 0; t < a.nthreads; t++ {
			if serr := sched.StartThread(t, t, prog.Entry, a.nthreads); serr != nil {
				err = unrecoverable{err: fmt.Errorf("starting threads: %v", serr)}
				return
			}
		}
		plan := a.p.PreemptPlan(faults.MixSeed(a.seed, 0x100+uint64(try)), a.nthreads, budget)
		cycles, injected, err = runPreemptPlan(m, sched, plan, budget)
	} else {
		m.StartSPMD(prog.Entry, a.nthreads)
		cycles, err = m.Run(budget)
	}
	if err != nil {
		return
	}
	if verr := a.k.Verify(m.Sys.Mem, prog, a.nthreads); verr != nil {
		err = unrecoverable{corrupt: true, err: fmt.Errorf("result corruption: %v", verr)}
	}
	return
}

// fillTargets are the lines the injector's spurious fills aim at: every
// arrival line of a filter barrier, else the data and barrier regions.
func fillTargets(gen barrier.Generator) []uint64 {
	hw, ok := gen.(barrier.HardwareBarrier)
	if !ok {
		return []uint64{core.DataBase, core.BarrierRegion}
	}
	var addrs []uint64
	for _, f := range hw.Filters() {
		for t := 0; t < f.NumThreads; t++ {
			addrs = append(addrs, f.ArrivalAddr(t))
		}
	}
	return addrs
}

// attribution renders the injector's summary plus its last few records.
func attribution(inj *faults.Injector) string {
	s := inj.Summary()
	recs := inj.Records()
	if n := len(recs); n > 5 {
		recs = recs[n-5:]
	}
	for _, r := range recs {
		s += "\n    " + r.String()
	}
	return s
}

// runPreemptPlan drives a machine while executing a preemption plan: at
// each event it drains and deschedules the victim, holds it off-core for
// the event's gap, and reschedules it on a free core (usually a different
// one — migration mid-barrier, §3.3.3). Returns the cycles consumed and
// the number of preemptions actually applied.
func runPreemptPlan(m *core.Machine, sched *osmodel.Scheduler,
	plan []faults.PreemptEvent, budget uint64) (uint64, uint64, error) {
	start := m.Now()
	limit := start + budget
	var applied uint64
	for _, ev := range plan {
		target := start + ev.At
		if target >= limit {
			break
		}
		if err := m.RunUntil(target); err != nil {
			return m.Now() - start, applied, err
		}
		if !m.Running() {
			break
		}
		if sched.CoreOf(ev.TID) < 0 {
			continue
		}
		if err := sched.PreemptWhenDrained(ev.TID, 20_000); err != nil {
			continue // victim halted or could not drain: skip this event
		}
		applied++
		resumeAt := m.Now() + ev.Gap
		if resumeAt > limit {
			resumeAt = limit
		}
		if err := m.RunUntil(resumeAt); err != nil {
			return m.Now() - start, applied, err
		}
		c := sched.FreeCore()
		if c < 0 {
			return m.Now() - start, applied, fmt.Errorf("chaos: no free core to resume thread %d", ev.TID)
		}
		if err := sched.Schedule(ev.TID, c); err != nil {
			return m.Now() - start, applied, err
		}
	}
	if m.Now() >= limit {
		return m.Now() - start, applied, fmt.Errorf("core: cycle limit %d exceeded on %s fabric during preemption plan", budget, m.Sys.FabricName())
	}
	_, err := m.Run(limit - m.Now())
	return m.Now() - start, applied, err
}
