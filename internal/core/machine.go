// Package core assembles the simulated chip multiprocessor: out-of-order
// cores (package cpu), the shared memory hierarchy with barrier-filter
// hooks (packages mem and filter), and the dedicated barrier network
// baseline (package hwnet). It is the public entry point for loading SRISC
// programs and running them to completion.
package core

import (
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/asm"
	"repro/internal/cpu"
	"repro/internal/filter"
	"repro/internal/hwnet"
	"repro/internal/mem"
)

// ErrStopped is wrapped by the error Run/RunUntil return when an external
// StopCheck aborts the simulation (wall-clock deadlines in the harness).
var ErrStopped = errors.New("core: run stopped by external stop check")

// Memory-map conventions used by the loader and the code generators.
const (
	// TextBase is where program text starts.
	TextBase = 0x0001_0000
	// DataBase is where static data starts.
	DataBase = 0x0100_0000
	// StackRegion is the bottom of the per-thread stack area.
	StackRegion = 0x0800_0000
	// StackStride separates consecutive threads' stacks.
	StackStride = 0x0004_0000
	// BarrierRegion is where the OS allocates barrier data lines
	// (D-cache arrival lines, exit lines, software barrier state).
	BarrierRegion = 0x0F00_0000
	// LockRegion is where the OS allocates hardware lock lines (one line
	// per participating thread per lock; see internal/barrier/locks.go).
	// It sits inside the sync-address space above BarrierRegion, so the
	// happens-before checker's SyncBase exemption covers both regions.
	LockRegion = 0x0F80_0000
)

// StackTop returns the initial stack pointer for a thread.
func StackTop(tid int) uint64 {
	return StackRegion + uint64(tid+1)*StackStride - 64
}

// Config configures a Machine.
type Config struct {
	Cores int
	Mem   mem.Config
	CPU   cpu.Config

	// ThreadsPerCore builds fine-grained multithreaded cores with this
	// many hardware contexts each (Niagara-style; 0 or 1 = one thread
	// per core, the configuration of all the paper's experiments). The
	// machine then has Cores*ThreadsPerCore logical cores sharing
	// Cores sets of L1 caches and MSHRs (§3.2.1).
	ThreadsPerCore int

	// FilterSlotsPerBank is the number of barrier filters each L2 bank
	// controller can hold (B in the paper).
	FilterSlotsPerBank int
	// FilterStrict applies §3.3.4 strict FSM checking to new filters.
	FilterStrict bool
	// FilterTimeout releases starved fills with an error code after this
	// many cycles (0 disables the hardware timeout).
	FilterTimeout uint64

	// NoFastPath disables the quiescent-core fast path (skipping pipeline
	// ticks for cores provably blocked on memory, and bulk cycle
	// fast-forwarding when all cores are). The fast path is behaviour-
	// invariant — cycle counts, statistics and outputs are bit-identical
	// either way — so this knob exists only for differential testing and
	// debugging.
	NoFastPath bool

	// NoTranslate disables the basic-block translation cache, restoring
	// per-fetch decoding. Like the fast path, translation is behaviour-
	// invariant (the cache is kept coherent with memory by a functional
	// write hook and by ICBI/IFLUSH; see internal/cpu/translate.go), so
	// the only observable difference is the absence of the translate.*
	// counters from StatsReport. The knob exists for differential testing
	// (the root TestDifferential, FuzzTranslateDiff, -notranslate).
	NoTranslate bool

	// StopCheck, when non-nil, is polled periodically inside Run/RunUntil;
	// returning true aborts the simulation with an error wrapping
	// ErrStopped that carries the last-progress cycle. The harness uses it
	// for per-cell wall-clock deadlines.
	StopCheck func() bool
}

// DefaultConfig returns the Table 2 machine for the given core count.
func DefaultConfig(cores int) Config {
	return Config{
		Cores:              cores,
		Mem:                mem.DefaultConfig(cores),
		CPU:                cpu.DefaultConfig(),
		FilterSlotsPerBank: 8,
	}
}

// Machine is one simulated CMP.
type Machine struct {
	Cfg Config
	Sys *mem.System
	// Cores lists the logical cores (hardware thread contexts); with
	// ThreadsPerCore > 1 several consecutive entries share one physical
	// core.
	Cores []*cpu.Core
	Net   *hwnet.Net
	Hooks []*filter.BankFilters // one per L2 bank

	tickers []ticker // one per physical core
	physOf  []int    // logical core -> physical core

	// fastCores[i] mirrors tickers[i] when that physical core is eligible
	// for the quiescent fast path (single-threaded, fast path enabled);
	// nil entries always take the plain Tick path, and any makes the
	// machine dense: every ticker ticks every cycle.
	fastCores []*cpu.Core
	dense     bool

	// The awake set: inside runTo and Step only the tickers whose bit is
	// set tick, in ascending index order. A fast core that quiesces or
	// proves its state periodic leaves it and sleeps, owing its ticks from
	// cycle sleptAt on, until a wake brings it up to date (cpu.Core.Skip)
	// and puts it back; a core that stops running just leaves. Outside them
	// nothing is owed (settle).
	awake    []uint64
	sleeping []bool
	sleptAt  []uint64
	sleepers int

	// cur is the ticker the core phase is at (len(tickers) outside it);
	// spin enables periodic sleep (enter). Tests read the counts of
	// periodic sleeps begun and of those settle ended.
	cur                     int
	spin                    bool
	spinSleeps, spinSettles uint64

	// trans is the machine-shared basic-block translation cache (nil
	// under Cfg.NoTranslate).
	trans *cpu.TransCache

	now      uint64
	faultErr error
	prog     *asm.Program // last loaded image, for label-level PC reports

	stopTick uint64 // StopCheck polling divider

	// probes are the attached event-stream consumers (Attach), checkers
	// those of them that can stop a run, both in attach order.
	probes   fanOut
	checkers []Checker
}

// ticker is one physical core's per-cycle unit.
type ticker interface {
	Tick(now uint64)
	Running() bool
}

// Validate checks the configuration, returning an error wrapping
// mem.ErrConfig describing the first problem.
func (cfg Config) Validate() error {
	if cfg.Cores <= 0 {
		return fmt.Errorf("core: core count %d is not positive: %w", cfg.Cores, mem.ErrConfig)
	}
	if cfg.ThreadsPerCore < 0 {
		return fmt.Errorf("core: threads per core %d is negative: %w", cfg.ThreadsPerCore, mem.ErrConfig)
	}
	if err := cfg.CPU.Validate(); err != nil {
		return err
	}
	mc := cfg.Mem
	mc.Cores = cfg.Cores
	return mc.Validate()
}

// NewMachineChecked validates cfg and builds the machine, turning a
// malformed configuration into an error instead of a panic deep inside a
// cache constructor. Harness cells go through this so a bad experiment
// configuration is reported as a config fault without killing the pool
// worker.
func NewMachineChecked(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return NewMachine(cfg), nil
}

// NewMachine builds the machine.
func NewMachine(cfg Config) *Machine {
	cfg.Mem.Cores = cfg.Cores
	m := &Machine{Cfg: cfg}
	m.Sys = mem.NewSystem(cfg.Mem)
	m.Net = hwnet.New(cfg.CPU.HWBarrierWireLat)
	for b := 0; b < cfg.Mem.L2Banks; b++ {
		h := filter.NewBankFilters(cfg.FilterSlotsPerBank)
		h.Cap = cfg.Mem.FilterCap
		m.Hooks = append(m.Hooks, h)
		m.Sys.Banks[b].SetHook(h)
	}
	tpc := cfg.ThreadsPerCore
	if tpc < 1 {
		tpc = 1
	}
	for p := 0; p < cfg.Cores; p++ {
		if tpc == 1 {
			c := cpu.New(cfg.CPU, p, m.Sys, m.Net)
			m.Cores = append(m.Cores, c)
			m.tickers = append(m.tickers, c)
			m.physOf = append(m.physOf, p)
			if cfg.NoFastPath {
				m.fastCores = append(m.fastCores, nil)
				m.dense = true
			} else {
				m.fastCores = append(m.fastCores, c)
				m.Sys.SetWakeHook(p, func() { m.wake(p) })
			}
			continue
		}
		// Multithreaded cores interleave contexts with per-cycle
		// round-robin bookkeeping that is not worth proving skippable;
		// they always take the plain path.
		mt := cpu.NewMT(cfg.CPU, p, p*tpc, tpc, m.Sys, m.Net)
		m.tickers = append(m.tickers, mt)
		m.fastCores = append(m.fastCores, nil)
		m.dense = true
		for _, c := range mt.Contexts {
			m.Cores = append(m.Cores, c)
			m.physOf = append(m.physOf, p)
		}
	}
	m.awake = make([]uint64, (len(m.tickers)+63)/64)
	m.sleeping = make([]bool, len(m.tickers))
	m.sleptAt = make([]uint64, len(m.tickers))
	m.cur = len(m.tickers)
	if !cfg.NoFastPath {
		m.Sys.SetChangeHook(m.disturb)
	}
	m.Sys.Mem.SetWriteHook(m.onWrite)
	if !cfg.NoTranslate {
		m.trans = cpu.NewTransCache(m.Sys.Mem, cfg.Mem.LineBytes)
		// Every logical core (including multithreaded contexts) shares
		// the one cache: they all fetch from the same physical memory.
		for _, c := range m.Cores {
			c.AttachTranslator(m.trans)
		}
	}
	m.Sys.OnFault = func(phys int, t mem.Txn) {
		err := fmt.Errorf("core %d: memory-system error on %s (filter: %s)",
			phys, t, m.Hooks[cfg.Mem.BankOf(t.Addr)].LastError())
		// The faulting response is addressed to a physical core; fault
		// every context sharing it.
		for l, c := range m.Cores {
			if m.physOf[l] == phys {
				c.RaiseFault(err)
			}
		}
		if m.faultErr == nil {
			m.faultErr = err
		}
	}
	return m
}

// Checker is an event-stream consumer that can stop a run (the sanitizer,
// the happens-before checker). At the top of every cycle Run and RunUntil
// visit, in attach order, a checker whose Due cycle has come runs Check; the
// first non-nil Err breaks the run loop, and a bulk jump over idle cycles
// stops at the earliest Due, so checks see the same machine states with the
// fast path on or off. Err must stay set once set; a checker told to keep
// going returns nil.
type Checker interface {
	mem.Probe
	// Check does the work due at cycle now.
	Check(now uint64)
	// Due is the next cycle Check must run at.
	Due() uint64
	// Err is the error that stops the run.
	Err() error
}

// Attach adds p to the consumers of the machine's read-only event stream:
// every core, the memory system and every bank's sync engine report to it,
// through a fan-out in attach order once there is more than one. Attach is
// the one way a consumer meets a run; a p that is also a Checker is polled
// by it too. A probed core never sleeps periodically (DESIGN.md §6).
func (m *Machine) Attach(p mem.Probe) {
	m.probes = append(m.probes, p)
	if c, ok := p.(Checker); ok {
		m.checkers = append(m.checkers, c)
	}
	if len(m.probes) > 1 {
		p = m.probes
	}
	for _, c := range m.Cores {
		c.SetProbe(p)
	}
	m.Sys.SetProbe(p)
	for _, h := range m.Hooks {
		h.SetProbe(p)
	}
}

// fanOut hands every event to each of its consumers.
type fanOut []mem.Probe

func (f fanOut) OnEvent(e mem.Event) {
	for _, p := range f {
		p.OnEvent(e)
	}
}

// LogicalCores returns the number of hardware thread contexts.
func (m *Machine) LogicalCores() int { return len(m.Cores) }

// PhysicalOf returns the physical core hosting logical core l.
func (m *Machine) PhysicalOf(l int) int { return m.physOf[l] }

// Load writes a program image into physical memory and retains it so
// runtime error reports can attribute PCs to assembler labels.
func (m *Machine) Load(p *asm.Program) {
	for _, seg := range p.Segments {
		m.Sys.Mem.WriteBytes(seg.Addr, seg.Data)
	}
	m.prog = p
}

// hookOf returns the bank engine a primitive's filtered lines map to.
func (m *Machine) hookOf(p filter.Primitive) *filter.BankFilters {
	return m.Hooks[m.Cfg.Mem.BankOf(p.Table().Base)]
}

// Install places a sync primitive — a barrier filter, a hardware lock —
// into the bank its lines map to, under the machine's Strict/Timeout
// configuration and one slot and entry-capacity accounting for every kind.
// It fails when that bank cannot host it (ErrNoCapacity on entry pressure);
// the caller falls back to a software path (§3.3.1).
func (m *Machine) Install(p filter.Primitive) error {
	t := p.Table()
	t.Strict = m.Cfg.FilterStrict
	t.Timeout = m.Cfg.FilterTimeout
	return m.hookOf(p).Add(p)
}

// Primitives enumerates the sync primitives installed across the banks, in
// bank then slot order.
func (m *Machine) Primitives() []filter.Primitive {
	var out []filter.Primitive
	for _, h := range m.Hooks {
		out = append(out, h.Hosted()...)
	}
	return out
}

// Remove swaps a primitive out of its bank.
func (m *Machine) Remove(p filter.Primitive) { m.hookOf(p).Remove(p) }

// Retire tears a primitive down for good: its entries are evicted and its
// tags move to the bank's retired list, where stale fills and invals keep
// getting error-coded responses (barrier teardown, §3.3.3).
func (m *Machine) Retire(p filter.Primitive) { m.hookOf(p).Retire(p) }

// DropParkedFills discards every parked fill issued by the given physical
// core across all banks. The OS calls it when descheduling a core whose
// MSHRs have been squashed — a later release would be dropped as stale, so
// the filter forgets the fill rather than servicing a ghost.
func (m *Machine) DropParkedFills(phys int) int {
	n := 0
	for _, h := range m.Hooks {
		n += h.DropParked(phys)
	}
	return n
}

// StartThread resets core tid to run at entry with thread id tid of
// nthreads.
func (m *Machine) StartThread(core int, entry uint64, tid, nthreads int) {
	m.Cores[core].Reset(entry, tid, nthreads, StackTop(tid))
}

// StartSPMD starts nthreads threads at entry, one per logical core.
func (m *Machine) StartSPMD(entry uint64, nthreads int) {
	if nthreads > len(m.Cores) {
		panic(fmt.Sprintf("core: %d threads on %d logical cores", nthreads, len(m.Cores)))
	}
	for t := 0; t < nthreads; t++ {
		m.StartThread(t, entry, t, nthreads)
	}
}

// Now returns the current cycle.
func (m *Machine) Now() uint64 { return m.now }

// Step advances the machine one cycle, exactly as one cycle of Run would.
func (m *Machine) Step() {
	m.enter()
	m.tick()
	m.settle()
}

// tick advances one cycle: the awake physical cores first, in index order
// (each advances one of its contexts), then the memory system. A core that
// proves itself quiesced or periodic after its tick falls asleep; the
// memory system's response delivery wakes it before its next tick, exactly
// as on the slow path, where the core ticks ahead of the delivery in the
// same cycle. A tick may wake a later sleeper (onWrite): re-read the set.
func (m *Machine) tick() {
	for w := range m.awake {
		for word, b := m.awake[w], 0; word != 0; word = m.awake[w] &^ (2<<b - 1) {
			b = bits.TrailingZeros64(word)
			i := w<<6 | b
			m.cur = i
			c := m.fastCores[i]
			if c == nil {
				m.tickers[i].Tick(m.now)
				continue
			}
			c.Tick(m.now)
			switch {
			case c.CheckQuiesce(m.now):
				m.sleep(i, m.now+1)
			case m.spin && c.Repeats() && c.CheckPeriodic(m.now):
				m.sleep(i, m.now+1)
				m.spinSleeps++
			case c.Running():
				continue
			}
			m.awake[w] &^= 1 << b
		}
	}
	m.cur = len(m.tickers)
	m.Sys.Tick(m.now)
	m.now++
}

// wake is physical core i's wake hook, fired before a response is
// delivered to it at cycle m.now.
func (m *Machine) wake(i int) {
	m.rouse(i)
	m.fastCores[i].Wake()
}

// disturb is the change hook: a line of core i's L1s is about to change.
// A quiesced sleeper sleeps on: it reads its L1s only after a response.
func (m *Machine) disturb(i int) {
	if m.sleeping[i] && !m.fastCores[i].Quiesced() {
		m.rouse(i)
	}
}

// onWrite is the memory write hook, run before a write lands: a periodic
// sleeper whose L1I holds the line (as all it fetches from) would fetch the
// new text, so it is brought up to date first.
func (m *Machine) onWrite(addr uint64, n int) {
	if m.sleepers > 0 && (m.trans == nil || m.trans.Covers(addr, n)) {
		for i, c := range m.fastCores {
			if m.sleeping[i] && !c.Quiesced() && m.Sys.L1I[i].Peek(addr) != mem.Invalid {
				m.rouse(i)
			}
		}
	}
	if m.trans != nil {
		m.trans.OnMemWrite(addr, n)
	}
}

// rouse brings sleeper i through this cycle (the previous one if the core
// phase has yet to reach it, which then ticks it) and wakes it.
func (m *Machine) rouse(i int) {
	if !m.sleeping[i] {
		return
	}
	end := m.now + 1
	if i > m.cur {
		end = m.now
	}
	m.fastCores[i].Skip(end - m.sleptAt[i])
	m.sleeping[i] = false
	m.sleepers--
	m.awake[i>>6] |= 1 << (i & 63)
}

// enter builds the awake set from the cores' own state, which the OS model
// and the harness change between runs: quiesced running cores sleep from
// this cycle on, and cores with no work stay out. A fault injector turns
// periodic sleep off, as a probe does core by core (DESIGN.md §6).
func (m *Machine) enter() {
	m.spin = !m.Sys.Chaotic()
	for i, t := range m.tickers {
		c := m.fastCores[i]
		bit := uint64(1) << (i & 63)
		m.awake[i>>6] &^= bit
		switch {
		case c == nil || t.Running() && !c.Quiesced():
			m.awake[i>>6] |= bit
		case c.Running():
			m.sleep(i, m.now)
		}
	}
}

// sleep records that fast core i, out of the awake set, owes its ticks from
// cycle from on.
func (m *Machine) sleep(i int, from uint64) {
	m.sleeping[i], m.sleptAt[i] = true, from
	m.sleepers++
}

// settle brings every sleeper through the cycles it slept up to m.now; a
// periodic one is awake again.
func (m *Machine) settle() {
	for i, c := range m.fastCores {
		if m.sleeping[i] {
			c.Skip(m.now - m.sleptAt[i])
			m.sleeping[i] = false
			if !c.Quiesced() {
				m.awake[i>>6] |= 1 << (i & 63)
				m.spinSettles++
			}
		}
	}
	m.sleepers = 0
}

// awakeRunning reports whether an awake ticker has work.
func (m *Machine) awakeRunning() bool {
	for w, word := range m.awake {
		for ; word != 0; word &= word - 1 {
			if m.tickers[w<<6|bits.TrailingZeros64(word)].Running() {
				return true
			}
		}
	}
	return false
}

// allQuiesced reports whether every running core is asleep, making the
// machine eligible for bulk cycle fast-forwarding. A dense machine
// (multithreaded cores, or NoFastPath) steps cycle by cycle.
func (m *Machine) allQuiesced() bool { return !m.dense && !m.awakeRunning() }

// poll runs the checkers' work due at this cycle, in attach order, and
// reports whether one has an error that stops the run.
func (m *Machine) poll() bool {
	for _, c := range m.checkers {
		if m.now >= c.Due() {
			c.Check(m.now)
		}
		if c.Err() != nil {
			return true
		}
	}
	return false
}

// stopPoll rate-limits the external StopCheck to one call per 1024 loop
// iterations.
func (m *Machine) stopPoll() bool {
	if m.Cfg.StopCheck == nil {
		return false
	}
	m.stopTick++
	return m.stopTick&1023 == 0 && m.Cfg.StopCheck()
}

// Running reports whether any core still has work.
func (m *Machine) Running() bool {
	for _, c := range m.Cores {
		if c.Running() {
			return true
		}
	}
	return false
}

// Run steps the machine until every core halts or faults, or until
// maxCycles elapse. It returns the number of cycles executed in this call
// and the first fault, if any; hitting the cycle limit is reported as an
// error.
func (m *Machine) Run(maxCycles uint64) (uint64, error) {
	start := m.now
	atLimit, err := m.runTo(start+maxCycles, true)
	if atLimit {
		err = fmt.Errorf("core: cycle limit %d exceeded on %s fabric (possible deadlock at pc %s)", maxCycles, m.Sys.FabricName(), m.describePCs())
	}
	return m.now - start, err
}

// RunUntil steps the machine (with the same quiescent-core fast-forwarding
// as Run) until cycle target is reached or every core halts or faults.
// Unlike Run, reaching the target is not an error — it is how external
// drivers (the OS model, the fault-injection harness) interleave scheduling
// actions with execution. It returns the first fault, if any.
func (m *Machine) RunUntil(target uint64) error {
	_, err := m.runTo(target, false)
	return err
}

// runTo is the loop under Run and RunUntil: poll the checkers and the
// external stop, bulk-skip when every running core is asleep, tick the awake
// ones otherwise, until no core runs or cycle stop is reached, and return
// the first error. The awake set is built on entry and every sleeper is
// credited on return, so between runs the cores' counters are exact.
// With limit set, reaching stop with cores still running is the caller's
// cycle-limit error: the checkers are polled at that cycle first, and the
// return is (true, nil) without latching them; without it the loop simply
// ends at stop.
func (m *Machine) runTo(stop uint64, limit bool) (atLimit bool, err error) {
	m.enter()
	defer m.settle()
	for (m.sleepers > 0 || m.awakeRunning()) && (limit || m.now < stop) {
		if m.poll() {
			break
		}
		if m.stopPoll() {
			return false, fmt.Errorf("%w (last progress at cycle %d)", ErrStopped, m.now)
		}
		if m.now >= stop {
			return true, nil
		}
		if m.allQuiesced() {
			// Every running core is asleep, provably idle until the
			// memory system's next event: jump straight to it (the
			// sleepers' counters are credited when they wake or the
			// run returns). With no event pending this is a true
			// deadlock — jump to stop, where Run reproduces the slow
			// path's error. Jumps are capped at the checkers' next due
			// cycle so checks observe the same machine states on both
			// paths.
			target, ok := m.Sys.NextEvent(m.now)
			if !ok || target > stop {
				target = stop
			}
			for _, c := range m.checkers {
				target = min(target, c.Due())
			}
			if target > m.now {
				m.now = target
				continue
			}
		}
		m.tick()
	}
	if m.faultErr != nil {
		return false, m.faultErr
	}
	for _, c := range m.checkers {
		if err := c.Err(); err != nil {
			return false, err
		}
	}
	for _, c := range m.Cores {
		if c.Fault != nil {
			return false, c.Fault
		}
	}
	return false, nil
}

// describePCs reports, for every still-running core, its resume PC and —
// when the core is starved on a fill parked inside the sync engine — which
// primitive's slot is holding it, so a cycle-limit report attributes the
// barrier or lock a deadlocked machine is actually stuck on.
func (m *Machine) describePCs() string {
	s := ""
	for i, c := range m.Cores {
		if !c.Running() {
			continue
		}
		blocked := ""
		phys := m.physOf[i]
		for b, h := range m.Hooks {
			if slot, p, thread, ok := h.BlockedOn(phys); ok {
				holder := ""
				if l, isLock := p.(*filter.Lock); isLock {
					holder = fmt.Sprintf(", holder %d", l.Holder())
				}
				t := p.Table()
				blocked = fmt.Sprintf(" blocked on %s %q (bank %d slot %d, thread entry %d%s)",
					t.Kind.Label, t.Name, b, slot, thread, holder)
				break
			}
		}
		s += fmt.Sprintf("[core%d %s%s]", i, m.LocatePC(c.ResumePC()), blocked)
	}
	return s
}

// LocatePC renders pc in hex, followed in parentheses by its label-level
// location in the last loaded program when it has one, as error reports
// (deadlocks, data races) print it.
func (m *Machine) LocatePC(pc uint64) string {
	s := fmt.Sprintf("%#x", pc)
	if m.prog != nil {
		if l := m.prog.Locate(pc); l != s {
			s = fmt.Sprintf("%#x(%s)", pc, l)
		}
	}
	return s
}

// TotalCommitted sums committed instructions across cores.
func (m *Machine) TotalCommitted() uint64 {
	var n uint64
	for _, c := range m.Cores {
		n += c.Committed
	}
	return n
}
