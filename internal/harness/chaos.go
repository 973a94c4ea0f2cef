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
		return runChaosCell(c, specs[i].k, specs[i].kind, specs[i].p,
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
	return runCell(opt, func(ctx *cellCtx) (ChaosCell, error) { return runChaosCell(ctx, k, kind, p, seed, nthreads) })
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

// runChaosCell runs one cell's attempts and holds their outcome to the
// chaos contract.
func runChaosCell(ctx *cellCtx, k kernels.Kernel, kind barrier.Kind, p faults.Profile,
	seed uint64, nthreads int) (ChaosCell, error) {
	cfg := ctx.stoppable(ChaosConfig(p, nthreads, ctx.opt))
	res, injected, attr, err := ctx.chaosAttempts(cfg, k, kind, p, seed, nthreads)
	cell := ChaosCell{Kernel: k.Name(), Kind: kind, Profile: p.Name,
		Attempts: len(res.Attempts), Cycles: res.TotalCycles, Injected: injected}

	// Contract checks: corruption is never an acceptable outcome, and a
	// cell with nothing injected must simply complete.
	for _, a := range res.Attempts {
		if strings.Contains(a.Err, "result corruption") {
			return cell, fmt.Errorf("chaos: %s/%s/%s: silent data corruption: %s",
				cell.Kernel, kind, p.Name, a.Err)
		}
	}
	switch {
	case err == nil && !res.Degraded:
		cell.Outcome = "identical"
		if injected > 0 {
			cell.Report = attr
		}
	case err == nil && res.Degraded:
		cell.Outcome = "degraded"
		cell.Report = res.Report() + "  " + attr
	default:
		if errors.Is(err, core.ErrStopped) {
			// A wall-clock deadline, not a simulated fault: surface it so
			// the sweep journals the cell as timed out.
			return cell, fmt.Errorf("chaos: %s/%s/%s: %w", cell.Kernel, kind, p.Name, err)
		}
		if !p.Active() {
			return cell, fmt.Errorf("chaos: %s/%s/%s: fault-free cell failed: %v",
				cell.Kernel, kind, p.Name, err)
		}
		cell.Outcome = "fault"
		cell.Report = err.Error() + "\n  " + attr
	}
	return cell, nil
}

// chaosAttempts runs a cell's attempts under the default fallback policy.
// Each attempt boots a fresh machine from cfg through the lifecycle every
// cell shares, attaches the profile's injector, starts the threads (through
// the OS model when the profile preempts, driven by runPreemptPlan) and
// verifies the results. Setup and verify failures are unrecoverable; a full
// sync table (filter.ErrNoCapacity) is the designed degradation and passes
// through to the fallback. It returns the policy's result, the faults
// injected across attempts, and their per-attempt attribution.
func (c *cellCtx) chaosAttempts(cfg core.Config, k kernels.Kernel, requested barrier.Kind, p faults.Profile,
	seed uint64, nthreads int) (res barrier.FallbackResult, injected uint64, attr string, err error) {
	what := fmt.Sprintf("chaos %s/%s", k.Name(), requested)
	var history []string // one entry per attempt that ran an injector
	res, err = barrier.RunWithFallback(requested, barrier.DefaultFallbackPolicy(c.opt.MaxCycles),
		func(kind barrier.Kind, try int, budget uint64) (uint64, error) {
			m, gen, prog, err := c.boot(what, cfg, nthreads, parBuild(k, kind, nthreads))
			if errors.Is(err, filter.ErrNoCapacity) {
				// Not corruption: the software fallback installs no filter
				// entries, which frees the bank's table for the program's locks.
				return 0, err
			} else if err != nil {
				return 0, fmt.Errorf("%w: %v", barrier.ErrUnrecoverable, err)
			}
			if p.Active() {
				inj := faults.New(p, faults.MixSeed(seed, uint64(try)+1), m.Sys, cfg.Cores)
				inj.SetPrimitives(m.Primitives())
				inj.SetFillTargets(fillTargets(gen))
				defer func() {
					injected += inj.TotalInjected()
					history = append(history, fmt.Sprintf("attempt %d %s", len(history), attribution(inj)))
				}()
			}
			var cycles uint64
			if p.WantsPreemption() {
				sched := osmodel.NewScheduler(m)
				for t := 0; t < nthreads; t++ {
					if err := sched.StartThread(t, t, prog.Entry, nthreads); err != nil {
						return 0, fmt.Errorf("%w: starting threads: %v", barrier.ErrUnrecoverable, err)
					}
				}
				plan := p.PreemptPlan(faults.MixSeed(seed, 0x100+uint64(try)), nthreads, budget)
				var applied uint64
				cycles, applied, err = runPreemptPlan(m, sched, plan, budget)
				injected += applied
			} else {
				m.StartSPMD(prog.Entry, nthreads)
				cycles, err = m.Run(budget)
			}
			if err != nil {
				return cycles, err
			}
			if err := k.Verify(m.Sys.Mem, prog, nthreads); err != nil {
				return cycles, fmt.Errorf("%w: result corruption: %v", barrier.ErrUnrecoverable, err)
			}
			return cycles, nil
		})
	return res, injected, strings.Join(history, "\n  "), err
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
