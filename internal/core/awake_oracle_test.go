package core_test

import (
	"fmt"
	"hash/fnv"
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
// Inside a run only the awake tickers tick; a sleeper, quiesced or
// periodic, is advanced by whole periods when it wakes or the run returns.
// Between runs — where the OS model preempts and the chaos harness reports —
// the set must equal what a scan of the cores yields, and everything a
// sleeper skipped must be as a machine without the fast path computed it
// cycle by cycle: the full stats report, every core's pc and registers, and
// both L1s of every core. This test stops machines at every chunk boundary
// of a prime length and checks them against a NoFastPath twin: a filter
// barrier (cores park and sleep), two software barriers (cores spin on L1
// hits and sleep periodically, and sleep behind LL/SC misses), two-thread
// cores (slow tickers that never sleep), the dedicated barrier network
// (HWBAR waiters sleep until the machine wakes them at their release
// cycle), on its own and under bus-delay, and the two software barriers
// under four fault injectors, wired as the chaos harness wires them, the
// same injector and seed on both twins (their injection records must match
// too): periodic sleep stays on under an injector (mem.ChaosHook's third
// rule). Each case's seed is a hash of its name. TestAwakeSetOracleMatrix
// (build tag probematrix, make chaos) runs every standard injector, and
// TestAwakeSetOracleSeeds these four at 32 seeds each.
func TestAwakeSetOracle(t *testing.T) {
	cases := []oracleCase{
		{"filter-d", barrier.KindFilterD, "livermore2", 1, 2, faults.Profile{}},
		{"sw-central", barrier.KindSWCentral, "livermore3", 1, 2, faults.Profile{}},
		{"sw-tree", barrier.KindSWTree, "livermore3", 1, 2, faults.Profile{}},
		{"threads-per-core-2", barrier.KindFilterD, "livermore2", 2, 2, faults.Profile{}},
	}
	for _, p := range oracleProfiles(t) {
		cases = append(cases, injectedCases(p)...)
	}
	busDelay := oracleProfiles(t)[0]
	cases = append(cases,
		oracleCase{"hw-net", barrier.KindHWNet, "livermore2", 1, 2, faults.Profile{}},
		oracleCase{"hw-net/bus-delay", barrier.KindHWNet, "livermore2", 1, 8, busDelay})
	awakeSetOracle(t, cases, true)
}

// oracleProfiles are the injectors TestAwakeSetOracle runs the software
// barriers under, bus-delay first.
func oracleProfiles(t *testing.T) []faults.Profile {
	var ps []faults.Profile
	for _, name := range []string{"bus-delay", "spurious-fill", "state-flip", "monsoon"} {
		p, ok := faults.ProfileByName(name)
		if !ok {
			t.Fatalf("no %s profile", name)
		}
		ps = append(ps, p)
	}
	return ps
}

// TestAwakeSetOracleFlippedLine runs sw-tree under state-flip at the seed
// whose flip at cycle 4070 made a line Modified in core 6's L1D while core
// 7's still held it Shared. Core 6's write to it then invalidated nothing,
// and core 7, asleep spinning on the line, replayed the old word (x31 = 1 at
// cycle 5100, its NoFastPath twin's 0) until the write hook learned to wake
// a sleeper whose L1D holds a written line once a flip has happened.
func TestAwakeSetOracleFlippedLine(t *testing.T) {
	runTwins(t, oracleCase{"sw-tree/state-flip", barrier.KindSWTree, "livermore3", 1, 8, oracleProfiles(t)[2]}, 11)
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
	fast, _ := runTwins(t, oracleCase{"sw-central/lock-preempt", barrier.KindSWCentral, "livermore3", 1, 8, p}, seed)
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

// awakeSetOracle runs each case against its NoFastPath twin, at a seed
// hashed from its name, so adding a case moves no other. With mustInject,
// an injector that never injected fails its case.
func awakeSetOracle(t *testing.T, cases []oracleCase, mustInject bool) {
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := fnv.New64a()
			h.Write([]byte(tc.name))
			fast, chunks := runTwins(t, tc, h.Sum64())
			// Two-thread cores never sleep. The others must have slept through
			// most of their cycles, with sleepers caught at boundaries, and the
			// spinners must have begun periodic sleeps, or the run proves
			// nothing; without an injector a spinner must also have crossed a
			// boundary asleep, where Skip steps part of a period. HWBAR
			// waiters only quiesce.
			spins, settles, spun := fast.m.SleepCounts()
			ticks, cycles := fast.m.CoreTicks(), fast.m.StatsReport().Snapshot()["core.cycles_total"]
			sw := tc.kind == barrier.KindSWCentral || tc.kind == barrier.KindSWTree
			switch {
			case chunks < 10 || tc.tpc == 1 && (settles == 0 || 2*ticks > cycles):
			case sw && (spins == 0 || !tc.profile.Active() && spun == 0):
			case fast.inj != nil && mustInject && fast.inj.TotalInjected() == 0:
			default:
				t.Logf("%d chunks, %d of %d core cycles ticked, %d periodic sleeps begun, %d sleepers settled (%d spinning), %s",
					chunks, ticks, cycles, spins, settles, spun, injected(fast))
				return
			}
			t.Fatalf("%d chunks, %d of %d core cycles ticked, %d periodic sleeps begun, %d sleepers settled (%d spinning), %s: too short to exercise sleeping across boundaries",
				chunks, ticks, cycles, spins, settles, spun, injected(fast))
		})
	}
}

// runTwins boots case tc's machine and its NoFastPath twin at seed and
// drives them to completion, returning the fast twin and the boundaries
// checked.
func runTwins(t *testing.T, tc oracleCase, seed uint64) (*oracleTwin, int) {
	boot := func(noFastPath bool) *oracleTwin {
		return bootTwin(t, tc.kind, tc.kernel, tc.tpc, tc.loops, tc.profile, seed, noFastPath)
	}
	fast, slow := boot(false), boot(true)
	return fast, driveTwins(t, fast, slow, tc.profile, seed)
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
// returns the boundaries checked.
func driveTwins(t *testing.T, fast, slow *oracleTwin, p faults.Profile, seed uint64) (chunks int) {
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
	return chunks
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
