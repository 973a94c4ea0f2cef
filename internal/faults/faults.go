// Package faults is the deterministic fault-injection layer of the
// simulator. An Injector implements mem.ChaosHook and, replayable from a
// single seed, perturbs the machine at the points a real CMP could
// misbehave: delayed and reordered fabric requests (attributed to the bus,
// crossbar port, or mesh link they would traverse), late responses, dropped
// invalidation acknowledgements, spurious fill responses, filter-table
// misuse transactions, and (through PreemptPlan, executed by the harness
// with the OS model) thread preemption and migration mid-barrier.
//
// Determinism rules: every decision comes from per-site xorshift streams
// derived from the injector's seed, consumed in simulation order; scheduled
// injections fire only at cycles announced through NextEvent. The same seed
// therefore replays byte-identically regardless of host parallelism or the
// quiescent-core fast path.
package faults

import (
	"fmt"
	"strings"

	"repro/internal/filter"
	"repro/internal/mem"
	"repro/internal/sim"
)

// Profile configures one injector: per-opportunity probabilities for the
// bus and bank sites, and mean gaps (in cycles, 0 = off) for the scheduled
// injections. A zero Profile injects nothing.
type Profile struct {
	Name string

	// Request (address bus) path.
	FillDelayP    float64 // P(delay a GetS/GetI/GetM request)
	FillDelayMin  uint64
	FillDelayMax  uint64
	InvalDelayP   float64 // P(delay an InvalD/InvalI request)
	InvalDelayMax uint64
	ReorderP      float64 // P(new request jumps its core's youngest queued entry)

	// Response (data) path.
	RespDelayP   float64
	RespDelayMax uint64

	// Bank-side invalidation acknowledgements.
	AckDropP float64

	// Scheduled injections: mean gap in cycles between events.
	SpuriousFillEvery uint64
	MisuseEvery       uint64

	// EvictEvery forcibly deallocates a random live filter entry (soft
	// error in the table's valid bits, or an aggressive OS reclaiming
	// entries under pressure). The victim's later arrival, exit, or fill
	// hits the Evicted state and faults attributably.
	EvictEvery uint64

	// LockEvictEvery is EvictEvery's schedule over lock table entries.
	// Evicting the holder frees the lock and grants the next waiter (a
	// deallocated holder must not wedge the queue); the victim's later
	// acquire, release, or fill hits the Evicted state and faults
	// attributably.
	LockEvictEvery uint64

	// FilterCapOverride, when positive, shrinks every bank's filter-table
	// entry capacity for the cell (applied by the harness when building
	// the machine config): an allocation flood that must spill to the
	// software barrier instead of wedging.
	FilterCapOverride int

	// StateFlipEvery injects soft errors into L1D tag/state arrays: a
	// random valid Shared line is silently promoted to Modified. The
	// caches hold no data, so the flip cannot corrupt results — it creates
	// exactly the kind of silent coherence-state disagreement only the
	// sanitizer's MSI checker can observe.
	StateFlipEvery uint64

	// OS preemption, executed by the harness (not the memory hook).
	PreemptEvery uint64 // mean gap between preemptions
	PreemptGap   uint64 // mean cycles a victim stays off-core

	// OnlyAddrs restricts the bus/ack sites to these line addresses
	// (nil = every address). Scheduled injections pick their own targets.
	OnlyAddrs []uint64
}

// Active reports whether the profile injects anything at all.
func (p Profile) Active() bool {
	return p.FillDelayP > 0 || p.InvalDelayP > 0 || p.ReorderP > 0 ||
		p.RespDelayP > 0 || p.AckDropP > 0 ||
		p.SpuriousFillEvery > 0 || p.MisuseEvery > 0 || p.PreemptEvery > 0 ||
		p.StateFlipEvery > 0 || p.EvictEvery > 0 || p.LockEvictEvery > 0 ||
		p.FilterCapOverride > 0
}

// WantsPreemption reports whether the harness must drive a preemption plan.
func (p Profile) WantsPreemption() bool { return p.PreemptEvery > 0 }

// Profiles returns the standard injector set the chaos harness sweeps:
// one quiet baseline, one profile per fault class, and a combined profile.
func Profiles() []Profile {
	return []Profile{
		{Name: "none"},
		{Name: "bus-delay", FillDelayP: 0.05, FillDelayMin: 1, FillDelayMax: 400,
			InvalDelayP: 0.05, InvalDelayMax: 400, RespDelayP: 0.05, RespDelayMax: 400},
		{Name: "bus-reorder", ReorderP: 0.10},
		{Name: "ack-drop", AckDropP: 0.02},
		{Name: "spurious-fill", SpuriousFillEvery: 500},
		{Name: "filter-misuse", MisuseEvery: 800},
		{Name: "preempt", PreemptEvery: 10_000, PreemptGap: 2_000},
		{Name: "state-flip", StateFlipEvery: 2_000},
		{Name: "alloc-flood", FilterCapOverride: 1},
		{Name: "forced-evict", EvictEvery: 6_000},
		{Name: "lock-evict", LockEvictEvery: 6_000},
		{Name: "lock-preempt", PreemptEvery: 8_000, PreemptGap: 1_500},
		{Name: "migrate-storm", PreemptEvery: 3_000, PreemptGap: 400},
		{Name: "monsoon", FillDelayP: 0.02, FillDelayMin: 1, FillDelayMax: 200,
			ReorderP: 0.02, RespDelayP: 0.02, RespDelayMax: 200, AckDropP: 0.004,
			SpuriousFillEvery: 1500, MisuseEvery: 2500},
	}
}

// ProfileByName finds a standard profile.
func ProfileByName(name string) (Profile, bool) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}

// ProfileNames lists the standard profiles, in sweep order — the simd
// server quotes it when rejecting a spec naming an unknown chaos profile.
func ProfileNames() []string {
	ps := Profiles()
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.Name
	}
	return names
}

// Record is one injected fault, for attribution in chaos reports.
type Record struct {
	Cycle  uint64
	Site   string
	Core   int
	Addr   uint64
	Detail string
}

func (r Record) String() string {
	s := fmt.Sprintf("@%d %s core%d addr=%#x", r.Cycle, r.Site, r.Core, r.Addr)
	if r.Detail != "" {
		s += " (" + r.Detail + ")"
	}
	return s
}

// MixSeed derives an independent stream seed from (seed, salt); the chaos
// harness uses it for per-cell and per-attempt seeds, the injector for its
// per-site streams (splitmix64 finalizer).
func MixSeed(seed, salt uint64) uint64 {
	z := seed + salt*0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// spuriousIDBase keeps synthetic transaction IDs disjoint from the real
// per-core ID counters (which start at 1), so receivers always classify an
// injected response as stale/unknown rather than matching a live MSHR.
const spuriousIDBase = uint64(1) << 62

// maxRecords bounds the attribution log; TotalInjected keeps counting.
const maxRecords = 256

// Injector implements mem.ChaosHook for one machine run.
type Injector struct {
	P     Profile
	sys   *mem.System
	cores int

	prims   []filter.Primitive // hosted sync primitives: misuse and evict targets
	targets []uint64           // spurious-fill target lines

	rngReq, rngResp, rngAck, rngSched *sim.Rand

	nextSpurious, nextMisuse, nextFlip, nextEvict, nextLockEvict uint64
	nextID                                                       uint64

	records []Record
	total   uint64

	// Per-site counters.
	FillDelays, InvalDelays, RespDelays, Reorders     uint64
	AckDrops, SpuriousFills, MisuseInvals, StateFlips uint64
	ForcedEvicts, LockEvicts                          uint64
}

var _ mem.ChaosHook = (*Injector)(nil)

// New creates an injector for the given profile and seed and attaches it to
// the memory system.
func New(p Profile, seed uint64, sys *mem.System, cores int) *Injector {
	in := &Injector{
		P:             p,
		sys:           sys,
		cores:         cores,
		rngReq:        sim.NewRand(MixSeed(seed, 1)),
		rngResp:       sim.NewRand(MixSeed(seed, 2)),
		rngAck:        sim.NewRand(MixSeed(seed, 3)),
		rngSched:      sim.NewRand(MixSeed(seed, 4)),
		nextSpurious:  ^uint64(0),
		nextMisuse:    ^uint64(0),
		nextFlip:      ^uint64(0),
		nextEvict:     ^uint64(0),
		nextLockEvict: ^uint64(0),
		nextID:        spuriousIDBase,
	}
	if p.SpuriousFillEvery > 0 {
		in.nextSpurious = 1 + in.gap(p.SpuriousFillEvery)
	}
	if p.MisuseEvery > 0 {
		in.nextMisuse = 1 + in.gap(p.MisuseEvery)
	}
	if p.StateFlipEvery > 0 {
		in.nextFlip = 1 + in.gap(p.StateFlipEvery)
	}
	if p.EvictEvery > 0 {
		in.nextEvict = 1 + in.gap(p.EvictEvery)
	}
	if p.LockEvictEvery > 0 {
		in.nextLockEvict = 1 + in.gap(p.LockEvictEvery)
	}
	sys.SetChaosHook(in)
	return in
}

// SetPrimitives gives the injector the sync primitives the machine hosts.
// The barrier filters among them are the misuse targets (the injector needs
// their thread states to stay on the detectable side of the protocol); each
// kind's tables are the targets of its evict schedule.
func (in *Injector) SetPrimitives(ps []filter.Primitive) { in.prims = ps }

// tables returns the hosted entry tables of one kind.
func (in *Injector) tables(kind *filter.Kind) []*filter.EntryTable {
	var out []*filter.EntryTable
	for _, p := range in.prims {
		if t := p.Table(); t.Kind == kind {
			out = append(out, t)
		}
	}
	return out
}

// SetFillTargets sets the line addresses spurious fills aim at.
func (in *Injector) SetFillTargets(addrs []uint64) { in.targets = addrs }

// gap draws a positive gap with the given mean from the scheduler stream.
func (in *Injector) gap(mean uint64) uint64 {
	return 1 + uint64(in.rngSched.Intn(int(2*mean)))
}

// span draws a delay in [min, max].
func span(r *sim.Rand, lo, hi uint64) uint64 {
	if hi <= lo {
		return lo
	}
	return lo + uint64(r.Intn(int(hi-lo+1)))
}

func (in *Injector) match(addr uint64) bool {
	if len(in.P.OnlyAddrs) == 0 {
		return true
	}
	la := in.sys.Cfg.LineAddr(addr)
	for _, a := range in.P.OnlyAddrs {
		if la == a {
			return true
		}
	}
	return false
}

func (in *Injector) record(cycle uint64, site string, core int, addr uint64, detail string) {
	in.total++
	if len(in.records) < maxRecords {
		in.records = append(in.records, Record{Cycle: cycle, Site: site, Core: core, Addr: addr, Detail: detail})
	}
}

// Records returns the attribution log (bounded; see TotalInjected).
func (in *Injector) Records() []Record { return in.records }

// TotalInjected returns how many faults were injected in all.
func (in *Injector) TotalInjected() uint64 { return in.total }

// Summary renders a one-line attribution of everything injected.
func (in *Injector) Summary() string {
	var parts []string
	add := func(n uint64, what string) {
		if n > 0 {
			parts = append(parts, fmt.Sprintf("%d %s", n, what))
		}
	}
	add(in.FillDelays, "delayed fills")
	add(in.InvalDelays, "delayed invals")
	add(in.RespDelays, "delayed responses")
	add(in.Reorders, "reordered requests")
	add(in.AckDrops, "dropped inval acks")
	add(in.SpuriousFills, "spurious fills")
	add(in.MisuseInvals, "misuse invals")
	add(in.StateFlips, "state flips")
	add(in.ForcedEvicts, "forced evictions")
	add(in.LockEvicts, "forced lock evictions")
	if len(parts) == 0 {
		return fmt.Sprintf("injector %q: nothing injected", in.P.Name)
	}
	return fmt.Sprintf("injector %q: %s", in.P.Name, strings.Join(parts, ", "))
}

// OnRequest implements mem.ChaosHook. Fault sites are named after the
// fabric link the transaction would traverse ("bus" on the shared bus,
// "xbar.c2-b1" on the crossbar, "mesh.c2(0,1)->b1(1,1)" on the NoC) so a
// chaos report attributes the perturbation to real wires.
func (in *Injector) OnRequest(t mem.Txn, ready uint64) (delay uint64, reorder bool) {
	if t.Kind.IsFillRequest() && in.P.FillDelayP > 0 && in.match(t.Addr) &&
		in.rngReq.Float64() < in.P.FillDelayP {
		delay = span(in.rngReq, in.P.FillDelayMin, in.P.FillDelayMax)
		in.FillDelays++
		in.record(ready, in.sys.ReqLinkName(t)+".fill-delay", t.Core, t.Addr, fmt.Sprintf("+%d cycles", delay))
	}
	if (t.Kind == mem.InvalD || t.Kind == mem.InvalI) && in.P.InvalDelayP > 0 &&
		in.match(t.Addr) && in.rngReq.Float64() < in.P.InvalDelayP {
		delay = span(in.rngReq, 1, in.P.InvalDelayMax)
		in.InvalDelays++
		in.record(ready, in.sys.ReqLinkName(t)+".inval-delay", t.Core, t.Addr, fmt.Sprintf("+%d cycles", delay))
	}
	if in.P.ReorderP > 0 && in.match(t.Addr) && in.rngReq.Float64() < in.P.ReorderP {
		reorder = true
		in.Reorders++
		in.record(ready, in.sys.ReqLinkName(t)+".reorder", t.Core, t.Addr, t.Kind.String())
	}
	return delay, reorder
}

// OnResponse implements mem.ChaosHook.
func (in *Injector) OnResponse(bank int, t mem.Txn, ready uint64) (delay uint64) {
	if in.P.RespDelayP > 0 && in.match(t.Addr) && in.rngResp.Float64() < in.P.RespDelayP {
		delay = span(in.rngResp, 1, in.P.RespDelayMax)
		in.RespDelays++
		in.record(ready, in.sys.RespLinkName(bank, t)+".delay", t.Core, t.Addr, fmt.Sprintf("%s +%d cycles", t.Kind, delay))
	}
	return delay
}

// OnInvalAckDrop implements mem.ChaosHook.
func (in *Injector) OnInvalAckDrop(now uint64, t mem.Txn) bool {
	if in.P.AckDropP > 0 && in.match(t.Addr) && in.rngAck.Float64() < in.P.AckDropP {
		in.AckDrops++
		in.record(now, "bank.ack-drop", t.Core, t.Addr, "invalidation applied, ack lost")
		return true
	}
	return false
}

// Tick implements mem.ChaosHook: fire the scheduled injections that are due.
func (in *Injector) Tick(now uint64) {
	if now >= in.nextSpurious {
		in.injectSpurious(now)
		in.nextSpurious = now + in.gap(in.P.SpuriousFillEvery)
	}
	if now >= in.nextMisuse {
		in.injectMisuse(now)
		in.nextMisuse = now + in.gap(in.P.MisuseEvery)
	}
	if now >= in.nextFlip {
		in.injectFlip(now)
		in.nextFlip = now + in.gap(in.P.StateFlipEvery)
	}
	if now >= in.nextEvict {
		in.injectEvict(now, filter.BarrierKind, &in.ForcedEvicts)
		in.nextEvict = now + in.gap(in.P.EvictEvery)
	}
	if now >= in.nextLockEvict {
		in.injectEvict(now, filter.LockKind, &in.LockEvicts)
		in.nextLockEvict = now + in.gap(in.P.LockEvictEvery)
	}
}

// NextEvent implements mem.ChaosHook.
func (in *Injector) NextEvent(now uint64) (event uint64, ok bool) {
	if in.P.SpuriousFillEvery > 0 {
		event, ok = in.nextSpurious, true
	}
	if in.P.MisuseEvery > 0 && (!ok || in.nextMisuse < event) {
		event, ok = in.nextMisuse, true
	}
	if in.P.StateFlipEvery > 0 && (!ok || in.nextFlip < event) {
		event, ok = in.nextFlip, true
	}
	if in.P.EvictEvery > 0 && (!ok || in.nextEvict < event) {
		event, ok = in.nextEvict, true
	}
	if in.P.LockEvictEvery > 0 && (!ok || in.nextLockEvict < event) {
		event, ok = in.nextLockEvict, true
	}
	if ok && event < now {
		event = now
	}
	return event, ok
}

// injectSpurious delivers a fill response nobody asked for. Its ID matches
// no MSHR, so a correct L1 must classify it as stale and drop it; anything
// else is a bug the chaos harness will surface as corruption.
func (in *Injector) injectSpurious(now uint64) {
	if len(in.targets) == 0 {
		return
	}
	addr := in.targets[in.rngSched.Intn(len(in.targets))]
	core := in.rngSched.Intn(in.cores)
	in.nextID++
	t := mem.Txn{Kind: mem.Fill, Addr: addr, Core: core, ID: in.nextID, ReqKind: mem.GetS,
		Err: in.rngSched.Float64() < 0.25}
	in.sys.InjectResponse(t, now+1)
	in.SpuriousFills++
	in.record(now, "fill.spurious", core, addr, "unsolicited fill response")
}

// injectMisuse places a duplicate arrival invalidation on the bus for a
// thread the filter is already tracking. The choice is state-aware: a
// duplicate arrival for a Waiting thread is indistinguishable from the
// legitimate one (no hardware could tell them apart, and it would open the
// barrier early), so only the detectable-misuse states are targeted —
// Blocking (double arrival, §3.3.4) and Servicing (arrival before exit).
func (in *Injector) injectMisuse(now uint64) {
	filters := in.tables(filter.BarrierKind)
	if len(filters) == 0 {
		return
	}
	f := filters[in.rngSched.Intn(len(filters))]
	t := in.rngSched.Intn(f.NumThreads)
	if f.Entry(t) == filter.EntryIdle {
		return
	}
	core := in.rngSched.Intn(in.cores)
	in.nextID++
	txn := mem.Txn{Kind: mem.InvalD, Addr: f.LineAddr(t), Core: core, ID: in.nextID}
	in.sys.InjectRequest(txn, now+1)
	in.MisuseInvals++
	in.record(now, "filter.misuse", core, f.LineAddr(t),
		fmt.Sprintf("duplicate arrival for thread %d in state %s", t, f.StateName(t)))
}

// injectEvict forcibly deallocates one live table entry of a primitive of
// the given kind — a soft error in the table's valid bits, or the OS
// reclaiming an entry under capacity pressure. The entry automaton's
// eviction path does the rest: parked fills on the victim come back as
// error fills immediately, the kind's rule is told (an evicted lock holder
// frees the lock and grants the next waiter), and the victim's later
// invalidation or re-issued fill hits the Evicted state and gets an
// error-coded response. Either way the run faults attributably and the
// degradation engine retries or falls back — a barrier can wedge only as
// far as the hardware timeout, and mutual exclusion degrades, it never
// silently breaks.
func (in *Injector) injectEvict(now uint64, kind *filter.Kind, count *uint64) {
	tables := in.tables(kind)
	if len(tables) == 0 {
		return
	}
	e := tables[in.rngSched.Intn(len(tables))]
	t := in.rngSched.Intn(e.NumThreads)
	if e.Entry(t) == filter.EntryEvicted {
		return
	}
	// A cell runs one barrier but any number of locks, so a lock is named.
	which := ""
	if kind == filter.LockKind {
		which = fmt.Sprintf("lock %q ", e.Name)
	}
	detail := fmt.Sprintf("forced eviction of %sthread %d in state %s", which, t, e.StateName(t))
	_ = e.EvictThread(t) // t is in range by construction
	*count++
	in.record(now, kind.Noun+".evict", -1, e.LineAddr(t), detail)
}

// injectFlip promotes one random valid Shared line in one core's L1D to
// Modified — a soft error in the tag/state array. Since the caches are
// timing-only (data lives in the backing Memory), the flip cannot corrupt
// functional results; it silently breaks the single-writer invariant, which
// only the sanitizer's MSI checker observes. The target set is the machine
// state at the scheduled cycle, which the fast-path invariance guarantees is
// identical on both execution paths, so replay determinism is preserved.
func (in *Injector) injectFlip(now uint64) {
	core := in.rngSched.Intn(in.cores)
	var shared []uint64
	for _, ln := range in.sys.L1D[core].Snapshot() {
		if ln.State == mem.Shared {
			shared = append(shared, ln.Addr)
		}
	}
	if len(shared) == 0 {
		return
	}
	addr := shared[in.rngSched.Intn(len(shared))]
	in.sys.L1D[core].InjectState(addr, mem.Modified)
	in.StateFlips++
	in.record(now, "l1.state-flip", core, addr, "S->M soft error in the tag/state array")
}

// PreemptEvent is one entry of a preemption plan: at machine cycle At, pull
// thread TID off its core for Gap cycles (the harness reschedules it on a
// free core, migrating when one is available).
type PreemptEvent struct {
	At  uint64
	TID int
	Gap uint64
}

// PreemptPlan derives a deterministic preemption schedule from the seed.
func (p Profile) PreemptPlan(seed uint64, nthreads int, horizon uint64) []PreemptEvent {
	if p.PreemptEvery == 0 || nthreads == 0 {
		return nil
	}
	r := sim.NewRand(MixSeed(seed, 5))
	var evs []PreemptEvent
	at := uint64(0)
	for {
		at += 1 + uint64(r.Intn(int(2*p.PreemptEvery)))
		if at >= horizon {
			return evs
		}
		gap := uint64(1)
		if p.PreemptGap > 0 {
			gap = 1 + uint64(r.Intn(int(2*p.PreemptGap)))
		}
		evs = append(evs, PreemptEvent{At: at, TID: r.Intn(nthreads), Gap: gap})
	}
}
