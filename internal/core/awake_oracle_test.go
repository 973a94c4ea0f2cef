package core_test

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"repro/internal/barrier"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/kernels"
	"repro/internal/osmodel"
)

// Brute-force awake-set oracle.
//
// Inside a run only the awake tickers tick; a quiesced core sleeps and is
// credited its per-cycle counters when it wakes or the run returns, and a
// periodic one is advanced by whole periods and steps the rest. Between
// runs — where the OS model preempts and the chaos harness reports — the
// set must equal what a scan of the cores yields, and everything a sleeper
// skipped must be as a machine without the fast path computed it cycle by
// cycle: the full stats report, every core's pc and registers, and both L1s
// of every core. This test stops machines at every chunk boundary of a
// prime length and checks them against a NoFastPath twin: a filter barrier
// (cores park and sleep), two software barriers (cores spin on L1 hits and
// sleep periodically, and sleep behind LL/SC misses), two-thread cores
// (slow tickers that never sleep), the dedicated barrier network (HWBAR
// waiters sleep until the machine wakes them at their release cycle), on
// its own and under bus-delay, and the two software barriers under
// four fault injectors, wired as the chaos harness wires them, the same
// injector and seed on both twins (their injection records must match
// too): periodic sleep stays on under an injector (mem.ChaosHook's third
// rule). TestAwakeSetOracleMatrix (build tag probematrix, make chaos) runs
// every standard injector.
func TestAwakeSetOracle(t *testing.T) {
	cases := []oracleCase{
		{"filter-d", barrier.KindFilterD, "livermore2", 1, 2, faults.Profile{}},
		{"sw-central", barrier.KindSWCentral, "livermore3", 1, 2, faults.Profile{}},
		{"sw-tree", barrier.KindSWTree, "livermore3", 1, 2, faults.Profile{}},
		{"threads-per-core-2", barrier.KindFilterD, "livermore2", 2, 2, faults.Profile{}},
	}
	for _, p := range faults.Profiles() {
		if slices.Contains([]string{"bus-delay", "spurious-fill", "state-flip", "monsoon"}, p.Name) {
			cases = append(cases, injectedCases(p)...)
		}
	}
	// Appended, so every case above keeps the seed its index gives it.
	busDelay, ok := faults.ProfileByName("bus-delay")
	if !ok {
		t.Fatal("no bus-delay profile")
	}
	cases = append(cases,
		oracleCase{"hw-net", barrier.KindHWNet, "livermore2", 1, 2, faults.Profile{}},
		oracleCase{"hw-net/bus-delay", barrier.KindHWNet, "livermore2", 1, 8, busDelay})
	awakeSetOracle(t, cases, true)
}

// TestAwakeSetOraclePreemptedSC runs sw-central under lock-preempt at the
// seed whose plan deschedules a thread between its store-conditional's
// write and its commit. Squashed there, the SC re-ran with its LL, the
// barrier's count overshot, and every thread spun past the cycle limit;
// Drained now holds the preemption until the SC commits.
func TestAwakeSetOraclePreemptedSC(t *testing.T) {
	p, ok := faults.ProfileByName("lock-preempt")
	if !ok {
		t.Fatal("no lock-preempt profile")
	}
	const seed = 26
	boot := func(noFastPath bool) *oracleTwin {
		return bootTwin(t, barrier.KindSWCentral, "livermore3", 1, 8, p, seed, noFastPath)
	}
	fast, slow := boot(false), boot(true)
	driveTwins(t, fast, slow, p, seed)
	if fast.m.Running() {
		t.Fatalf("still running at cycle %d", fast.m.Now())
	}
}

type oracleCase struct {
	name    string
	kind    barrier.Kind
	kernel  string
	tpc     int
	loops   int
	profile faults.Profile
}

// injectedCases are the two software barriers under profile p, with longer
// runs so the scheduled injections fire often.
func injectedCases(p faults.Profile) []oracleCase {
	var cases []oracleCase
	for _, kind := range []barrier.Kind{barrier.KindSWCentral, barrier.KindSWTree} {
		cases = append(cases, oracleCase{fmt.Sprintf("%s/%s", kind, p.Name), kind, "livermore3", 1, 8, p})
	}
	return cases
}

// awakeSetOracle runs each case against its NoFastPath twin. With
// mustInject, an injector that never injected fails its case.
func awakeSetOracle(t *testing.T, cases []oracleCase, mustInject bool) {
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			boot := func(noFastPath bool) *oracleTwin {
				return bootTwin(t, tc.kind, tc.kernel, tc.tpc, tc.loops, tc.profile, uint64(i), noFastPath)
			}
			fast, slow := boot(false), boot(true)
			chunks, asleep := driveTwins(t, fast, slow, tc.profile, uint64(i))
			// Two-thread cores never sleep; the others must have been caught
			// asleep at boundaries, and the spinning ones periodically asleep,
			// or the run proves nothing. Under an injector the spinners must
			// at least begin periodic sleeps; HWBAR waiters only quiesce.
			sleeps, spun := fast.m.SpinCounts()
			sw := tc.kind == barrier.KindSWCentral || tc.kind == barrier.KindSWTree
			switch {
			case chunks < 10 || tc.tpc == 1 && asleep == 0:
			case !tc.profile.Active() && sw && spun == 0:
			case tc.profile.Active() && sw && sleeps == 0:
			case fast.inj != nil && mustInject && fast.inj.TotalInjected() == 0:
			default:
				t.Logf("%d chunks, %d periodic sleeps begun, %d settled, %s", chunks, sleeps, spun, injected(fast))
				return
			}
			t.Fatalf("%d chunks, %d cores quiesced and %d periodically asleep at a boundary, %d periodic sleeps begun, %s: too short to exercise sleeping across boundaries",
				chunks, asleep, spun, sleeps, injected(fast))
		})
	}
}

// oracleTwin is one machine of the oracle's pair, with its injector and,
// for a preempting profile, the OS model that schedules its threads.
type oracleTwin struct {
	m     *core.Machine
	inj   *faults.Injector
	sched *osmodel.Scheduler
}

// bootTwin builds and starts one machine of a case the way the chaos
// harness does: strict filters with the hardware timeout armed, a spare
// core when the profile preempts, the injector attached before any thread
// starts.
func bootTwin(t *testing.T, kind barrier.Kind, kernel string, tpc, loops int, p faults.Profile, seed uint64, noFastPath bool) *oracleTwin {
	const threads = 8
	cores := threads / tpc
	if p.WantsPreemption() {
		cores++
	}
	cfg := core.DefaultConfig(cores)
	cfg.ThreadsPerCore = tpc
	cfg.NoFastPath = noFastPath
	if p.Active() {
		cfg.FilterStrict = true
		cfg.FilterTimeout = 100_000
		if p.FilterCapOverride > 0 {
			cfg.Mem.FilterCap = p.FilterCapOverride
		}
	}
	gen, err := barrier.New(kind, threads, barrier.NewAllocator(cfg.Mem))
	if err != nil {
		t.Fatal(err)
	}
	k, err := kernels.New(kernel, 64, loops)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := k.BuildPar(gen, threads)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.NewMachineChecked(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := barrier.Install(m, gen, prog); err != nil {
		t.Fatal(err)
	}
	tw := &oracleTwin{m: m}
	if p.Active() {
		// A software barrier has no arrival lines: spurious fills aim at
		// the data and barrier regions, as in the harness.
		tw.inj = faults.New(p, faults.MixSeed(seed, 1), m.Sys, cfg.Cores)
		tw.inj.SetPrimitives(m.Primitives())
		tw.inj.SetFillTargets([]uint64{core.DataBase, core.BarrierRegion})
	}
	if !p.WantsPreemption() {
		m.StartSPMD(prog.Entry, threads)
		return tw
	}
	tw.sched = osmodel.NewScheduler(m)
	for i := 0; i < threads; i++ {
		if err := tw.sched.StartThread(i, i, prog.Entry, threads); err != nil {
			t.Fatal(err)
		}
	}
	return tw
}

// driveTwins runs the pair to completion, stopping at every chunk boundary
// and comparing them there; under a preempting profile it executes the
// profile's plan on both, as the chaos harness does, with stops at every
// event too. A run that fails must fail alike on both twins, and ends the
// case; only an injector may make it fail (a strict filter's fault). It
// returns the boundaries checked and the cores caught quiesced.
func driveTwins(t *testing.T, fast, slow *oracleTwin, p faults.Profile, seed uint64) (chunks, asleep int) {
	const chunk, limit = 97, 200_000
	twins := [2]*oracleTwin{fast, slow}
	failed := false
	// advance runs both twins to cycle to, through every boundary before it.
	advance := func(to uint64) {
		for !failed && fast.m.Now() < to && (fast.m.Running() || slow.m.Running()) {
			target := min(to, (fast.m.Now()/chunk+1)*chunk)
			if target > limit {
				t.Fatalf("no completion within %d cycles", limit)
			}
			errs := [2]string{}
			for i, tw := range twins {
				if err := tw.m.RunUntil(target); err != nil {
					errs[i] = err.Error()
				}
			}
			if errs[0] != errs[1] {
				t.Fatalf("cycle %d: run error %q, NoFastPath twin %q", target, errs[0], errs[1])
			}
			if errs[0] != "" && !p.Active() {
				t.Fatalf("cycle %d: run error %q", target, errs[0])
			}
			failed = errs[0] != ""
			checkTwins(t, fast, slow, true)
			chunks++
			for _, c := range fast.m.Cores {
				if c.Quiesced() {
					asleep++
				}
			}
		}
	}
	for _, ev := range p.PreemptPlan(faults.MixSeed(seed, 0x100), 8, limit) {
		if advance(ev.At); failed || !fast.m.Running() || fast.sched.CoreOf(ev.TID) < 0 {
			continue
		}
		errs := [2]string{}
		for i, tw := range twins {
			if err := tw.sched.PreemptWhenDrained(ev.TID, 20_000); err != nil {
				errs[i] = err.Error()
			}
		}
		if errs[0] != errs[1] {
			t.Fatalf("cycle %d: preempting thread %d: %q, NoFastPath twin %q", fast.m.Now(), ev.TID, errs[0], errs[1])
		}
		checkTwins(t, fast, slow, false)
		if errs[0] != "" {
			continue // the victim halted or could not drain, as the harness skips it
		}
		advance(fast.m.Now() + ev.Gap)
		for _, tw := range twins {
			if err := tw.sched.Schedule(ev.TID, tw.sched.FreeCore()); err != nil {
				t.Fatal(err)
			}
		}
	}
	advance(limit + 1)
	return chunks, asleep
}

// checkTwins compares the pair between runs: the cycle, the machine state
// and the injectors' records, and, where a run has just returned (awake),
// both awake sets against a scan. The OS model changes run state between
// runs, which the next run's entry reads, so after a preemption the sets
// may be stale.
func checkTwins(t *testing.T, fast, slow *oracleTwin, awake bool) {
	t.Helper()
	if awake {
		for _, tw := range []*oracleTwin{fast, slow} {
			if err := tw.m.CheckAwake(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if fast.m.Now() != slow.m.Now() {
		t.Fatalf("stopped at cycle %d, NoFastPath twin at %d", fast.m.Now(), slow.m.Now())
	}
	if err := sameState(fast.m, slow.m); err != nil {
		t.Fatalf("cycle %d: %v", fast.m.Now(), err)
	}
	if a, b := injected(fast), injected(slow); a != b {
		t.Fatalf("cycle %d: %s, NoFastPath twin %s", fast.m.Now(), a, b)
	}
}

// injected renders a twin's injector: its summary and record count.
func injected(tw *oracleTwin) string {
	if tw.inj == nil {
		return "no injector"
	}
	return fmt.Sprintf("%s (%d records)", tw.inj.Summary(), len(tw.inj.Records()))
}

// sameState compares everything a sleeper's credit or replay must restore
// with the NoFastPath twin's: the full stats report, every core's pc and
// registers, and the lines of every core's two L1s.
func sameState(fast, slow *core.Machine) error {
	if a, b := fast.StatsReport().Snapshot(), slow.StatsReport().Snapshot(); !maps.Equal(a, b) {
		for k, v := range a {
			if b[k] != v {
				return fmt.Errorf("stat %s = %d, NoFastPath twin %d", k, v, b[k])
			}
		}
		return fmt.Errorf("stats keys differ from the NoFastPath twin's")
	}
	for i, c := range fast.Cores {
		pc, regs := c.Context()
		spc, sregs := slow.Cores[i].Context()
		if pc != spc || regs != sregs {
			return fmt.Errorf("core %d: pc %#x regs %v, NoFastPath twin pc %#x regs %v", i, pc, regs, spc, sregs)
		}
	}
	for p := range fast.Sys.L1D {
		if !slices.Equal(fast.Sys.L1D[p].Snapshot(), slow.Sys.L1D[p].Snapshot()) ||
			!slices.Equal(fast.Sys.L1I[p].Snapshot(), slow.Sys.L1I[p].Snapshot()) {
			return fmt.Errorf("physical core %d: L1 lines differ from the NoFastPath twin's", p)
		}
	}
	return nil
}
