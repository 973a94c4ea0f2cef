package faults

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/filter"
	"repro/internal/mem"
)

func TestMixSeedDeterministicAndDistinct(t *testing.T) {
	if MixSeed(7, 3) != MixSeed(7, 3) {
		t.Fatal("MixSeed is not deterministic")
	}
	seen := map[uint64]bool{}
	for salt := uint64(0); salt < 100; salt++ {
		v := MixSeed(42, salt)
		if seen[v] {
			t.Fatalf("MixSeed collision at salt %d", salt)
		}
		seen[v] = true
	}
}

func TestProfilesResolveByName(t *testing.T) {
	names := map[string]bool{}
	for _, p := range Profiles() {
		if names[p.Name] {
			t.Fatalf("duplicate profile name %q", p.Name)
		}
		names[p.Name] = true
		got, ok := ProfileByName(p.Name)
		if !ok || got.Name != p.Name {
			t.Fatalf("ProfileByName(%q) failed", p.Name)
		}
	}
	if !names["none"] || Profiles()[0].Active() {
		t.Fatal("profile set must open with an inactive baseline")
	}
	if _, ok := ProfileByName("no-such"); ok {
		t.Fatal("unknown profile resolved")
	}
}

// drive feeds a fixed synthetic transaction stream through every injector
// site and returns a transcript of its decisions.
func drive(in *Injector) string {
	out := ""
	for i := 0; i < 300; i++ {
		req := mem.Txn{Kind: mem.GetS, Addr: uint64(i) * 64, Core: i % 4, ID: uint64(i + 1)}
		d, r := in.OnRequest(req, uint64(i))
		out += fmt.Sprintf("req %d %v;", d, r)
		inv := mem.Txn{Kind: mem.InvalD, Addr: uint64(i) * 64, Core: i % 4}
		d, r = in.OnRequest(inv, uint64(i))
		out += fmt.Sprintf("inv %d %v;", d, r)
		resp := mem.Txn{Kind: mem.Fill, Addr: uint64(i) * 64, Core: i % 4, ID: uint64(i + 1)}
		out += fmt.Sprintf("resp %d;", in.OnResponse(0, resp, uint64(i)))
		out += fmt.Sprintf("ack %v;", in.OnInvalAckDrop(uint64(i), inv))
	}
	return out
}

func TestInjectorReplaysDeterministically(t *testing.T) {
	p, _ := ProfileByName("monsoon")
	mk := func(seed uint64) *Injector {
		m := core.NewMachine(core.DefaultConfig(2))
		return New(p, seed, m.Sys, 4)
	}
	a, b := mk(42), mk(42)
	ta, tb := drive(a), drive(b)
	if ta != tb {
		t.Fatal("same seed produced different decision streams")
	}
	if a.TotalInjected() != b.TotalInjected() || a.Summary() != b.Summary() {
		t.Fatalf("same seed, different attribution: %q vs %q", a.Summary(), b.Summary())
	}
	ra, rb := a.Records(), b.Records()
	if len(ra) != len(rb) {
		t.Fatalf("record counts differ: %d vs %d", len(ra), len(rb))
	}
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatalf("record %d differs: %v vs %v", i, ra[i], rb[i])
		}
	}
	if tc := drive(mk(43)); tc == ta {
		t.Fatal("different seed replayed the identical decision stream")
	}
}

func TestOnlyAddrsRestrictsSites(t *testing.T) {
	m := core.NewMachine(core.DefaultConfig(2))
	target := uint64(0x10000)
	in := New(Profile{FillDelayP: 1, FillDelayMin: 5, FillDelayMax: 5,
		OnlyAddrs: []uint64{target}}, 7, m.Sys, 2)
	if d, _ := in.OnRequest(mem.Txn{Kind: mem.GetS, Addr: target + 4096, Core: 0, ID: 1}, 0); d != 0 {
		t.Fatalf("off-target address delayed by %d", d)
	}
	if d, _ := in.OnRequest(mem.Txn{Kind: mem.GetS, Addr: target + 8, Core: 0, ID: 2}, 0); d != 5 {
		t.Fatalf("same-line address delayed by %d, want 5", d)
	}
}

func TestPreemptPlanDeterministic(t *testing.T) {
	p, _ := ProfileByName("preempt")
	a := p.PreemptPlan(9, 4, 200_000)
	b := p.PreemptPlan(9, 4, 200_000)
	if len(a) == 0 {
		t.Fatal("empty plan over a 20x-mean horizon")
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("same seed produced different preemption plans")
	}
	last := uint64(0)
	for _, ev := range a {
		if ev.At >= 200_000 || ev.At <= last {
			t.Fatalf("event at %d out of order or past horizon", ev.At)
		}
		if ev.TID < 0 || ev.TID >= 4 || ev.Gap == 0 {
			t.Fatalf("malformed event %+v", ev)
		}
		last = ev.At
	}
	if p2 := (Profile{}); p2.PreemptPlan(9, 4, 200_000) != nil {
		t.Fatal("inactive profile produced a plan")
	}
}

// TestMisuseIsStateAware checks the injector's safety rule: a duplicate
// arrival for a Waiting thread is indistinguishable from the real one (it
// would open the barrier early — silent corruption), so the injector must
// never fire at Waiting threads; Blocking and Servicing are fair game.
func TestMisuseIsStateAware(t *testing.T) {
	m := core.NewMachine(core.DefaultConfig(2))
	in := New(Profile{MisuseEvery: 1}, 5, m.Sys, 2)
	f := filter.New("t", 0x1_0000, 0x2_0000, 64, 2)
	f.RegisterAll()
	in.SetPrimitives([]filter.Primitive{f})

	for i := 0; i < 50; i++ { // all threads Waiting: nothing may fire
		in.injectMisuse(uint64(i))
	}
	if in.MisuseInvals != 0 {
		t.Fatalf("%d misuse invals against Waiting threads", in.MisuseInvals)
	}

	f.InitServicing() // now every thread is a detectable-misuse target
	for i := 0; i < 50; i++ {
		in.injectMisuse(uint64(100 + i))
	}
	if in.MisuseInvals == 0 {
		t.Fatal("no misuse invals against Servicing threads")
	}
}

// TestDeallocatedSlotInvalIsHarmless covers the "arrival on a deallocated
// slot" misuse: once the OS swaps a filter out of its bank, stray
// invalidations of its old lines must degrade to plain invalidations — no
// fault, no state change.
func TestDeallocatedSlotInvalIsHarmless(t *testing.T) {
	bank := filter.NewBankFilters(2)
	f := filter.New("t", 0x1_0000, 0x2_0000, 64, 2)
	f.RegisterAll()
	if err := bank.Add(f); err != nil {
		t.Fatal(err)
	}
	// Installed and Waiting: the arrival inval is a legal arrival.
	if fault := bank.OnInval(0, f.ArrivalAddr(0), 0); fault {
		t.Fatal("legal arrival reported as fault")
	}
	if f.State(0) != filter.Blocking {
		t.Fatalf("thread 0 state %v, want Blocking", f.State(0))
	}
	bank.Remove(f)
	if fault := bank.OnInval(1, f.ArrivalAddr(1), 0); fault {
		t.Fatal("inval on deallocated slot reported as fault")
	}
	if f.State(1) != filter.Waiting || f.Errors != 0 {
		t.Fatalf("deallocated filter mutated: state=%v errors=%d", f.State(1), f.Errors)
	}
}

// TestSpuriousFillIsDroppedAsStale checks the ID-disjointness invariant:
// synthetic fill IDs start at 1<<62, so no live MSHR can ever match one.
func TestSpuriousFillIsDroppedAsStale(t *testing.T) {
	m := core.NewMachine(core.DefaultConfig(2))
	in := New(Profile{SpuriousFillEvery: 1}, 11, m.Sys, 2)
	in.SetFillTargets([]uint64{core.DataBase})
	in.injectSpurious(0)
	if in.SpuriousFills != 1 {
		t.Fatalf("spurious fills = %d, want 1", in.SpuriousFills)
	}
	if in.nextID <= spuriousIDBase {
		t.Fatal("synthetic IDs not drawn from the reserved range")
	}
	// Delivering the injected response must not perturb the idle machine.
	for i := 0; i < 100; i++ {
		m.Step()
	}
	if m.Cores[0].Fault != nil || m.Cores[1].Fault != nil {
		t.Fatal("spurious fill faulted an idle machine")
	}
}
