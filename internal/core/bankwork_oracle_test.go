package core_test

import (
	"fmt"
	"testing"

	"repro/internal/barrier"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/osmodel"
)

// Bank-work oracle.
//
// An L2 bank asks its sync-engine hook for released fills only while the
// pending-work count the hook keeps in the bank is nonzero (mem.Bank.Tick).
// This test checks that the skip is sound on the machines that move the
// count hardest: hardware locks, forced evictions of filter and lock entries,
// and thread migration mid-barrier. At every cycle the memory system ticks,
// after the fault injector has acted and before the banks consult their
// counts, each bank whose count is zero must hold nothing its hook's
// PopReleased would yield.

// gateOracle wraps the machine's chaos hook (the profile's injector, or
// noChaos) and runs the check in its Tick, which the memory system calls
// first in every cycle it ticks.
type gateOracle struct {
	mem.ChaosHook
	m             *core.Machine
	skipped, busy int
	err           error
}

func (o *gateOracle) Tick(now uint64) {
	o.ChaosHook.Tick(now)
	for b, bk := range o.m.Sys.Banks {
		if bk.HookWork() > 0 {
			o.busy++
			continue
		}
		o.skipped++
		if txn, errFill, ok := o.m.Hooks[b].PopReleased(now); ok && o.err == nil {
			o.err = fmt.Errorf("cycle %d bank %d: work count 0, but the hook released %+v (error fill %v)", now, b, txn, errFill)
		}
	}
}

// noChaos is a chaos hook that injects nothing.
type noChaos struct{}

func (noChaos) OnRequest(mem.Txn, uint64) (uint64, bool) { return 0, false }
func (noChaos) OnResponse(int, mem.Txn, uint64) uint64   { return 0 }
func (noChaos) OnInvalAckDrop(uint64, mem.Txn) bool      { return false }
func (noChaos) Tick(uint64)                              {}
func (noChaos) NextEvent(uint64) (uint64, bool)          { return 0, false }

func TestBankWorkOracle(t *testing.T) {
	const threads, budget = 8, 400_000
	cases := []struct {
		name     string
		kernel   string
		n, loops int
		kind     barrier.Kind
		profile  string
	}{
		{"lockreduce-filter-d", "lockreduce", 128, 2, barrier.KindFilterD, "none"},
		{"lockreduce-sw-central", "lockreduce", 128, 2, barrier.KindSWCentral, "none"},
		{"pipeline-filter-d", "pipeline", 48, 2, barrier.KindFilterD, "none"},
		{"lock-evict", "lockreduce", 1024, 8, barrier.KindFilterD, "lock-evict"},
		{"forced-evict", "livermore3", 512, 16, barrier.KindFilterD, "forced-evict"},
		{"migrate-storm", "livermore3", 512, 16, barrier.KindFilterD, "migrate-storm"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, ok := faults.ProfileByName(tc.profile)
			if !ok {
				t.Fatalf("no profile %q", tc.profile)
			}
			cores := threads
			if p.WantsPreemption() {
				cores++ // a spare core to migrate preempted threads onto
			}
			cfg := core.DefaultConfig(cores)
			gen, err := barrier.New(tc.kind, threads, barrier.NewAllocator(cfg.Mem))
			if err != nil {
				t.Fatal(err)
			}
			k, err := kernels.New(tc.kernel, tc.n, tc.loops)
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
			o := &gateOracle{ChaosHook: noChaos{}, m: m}
			if p.Active() {
				inj := faults.New(p, 1, m.Sys, cores)
				inj.SetPrimitives(m.Primitives())
				o.ChaosHook = inj
				defer func() {
					if !p.WantsPreemption() && inj.TotalInjected() == 0 {
						t.Errorf("profile %s injected nothing: the case misses its point", p.Name)
					}
				}()
			}
			m.Sys.SetChaosHook(o)
			// Injected faults may end the run in an attributed error; only
			// the oracle's verdict matters here.
			if p.WantsPreemption() {
				migrate(t, m, p, prog.Entry, threads, budget)
			} else {
				m.StartSPMD(prog.Entry, threads)
				_, _ = m.Run(budget)
			}
			if o.err != nil {
				t.Fatal(o.err)
			}
			if o.busy == 0 || o.skipped == 0 {
				t.Fatalf("bank-cycles with work %d, without %d: the run never exercised both sides of the gate", o.busy, o.skipped)
			}
		})
	}
}

// migrate runs the machine through the profile's preemption plan: each
// victim is drained, descheduled for the event's gap and resumed on a free
// core.
func migrate(t *testing.T, m *core.Machine, p faults.Profile, entry uint64, threads int, budget uint64) {
	sched := osmodel.NewScheduler(m)
	for tid := 0; tid < threads; tid++ {
		if err := sched.StartThread(tid, tid, entry, threads); err != nil {
			t.Fatal(err)
		}
	}
	moved := 0
	for _, ev := range p.PreemptPlan(1, threads, budget) {
		if m.RunUntil(ev.At) != nil || !m.Running() {
			break
		}
		if sched.CoreOf(ev.TID) < 0 || sched.PreemptWhenDrained(ev.TID, 20_000) != nil {
			continue
		}
		if m.RunUntil(m.Now()+ev.Gap) != nil {
			break
		}
		if err := sched.Schedule(ev.TID, sched.FreeCore()); err != nil {
			t.Fatal(err)
		}
		moved++
	}
	if moved == 0 {
		t.Fatal("no thread was migrated: the case misses its point")
	}
	_, _ = m.Run(budget)
}
