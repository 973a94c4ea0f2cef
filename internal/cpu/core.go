package cpu

import (
	"fmt"
	"reflect"

	"repro/internal/isa"
	"repro/internal/mem"
)

// BarrierNet is the dedicated barrier-network device (the hardware baseline
// of Beckmann & Polychronopoulos modelled in §4 of the paper). HWBAR talks
// to it; the device applies the wire latencies internally.
type BarrierNet interface {
	// Arrive signals that core has reached barrier id at cycle now.
	Arrive(now uint64, core, id int)
	// TryRelease reports whether the release signal for core/id has
	// arrived; a true result consumes it (resets the local status bit).
	TryRelease(now uint64, core, id int) bool
}

// fetchedInst is one instruction waiting in the fetch buffer. d points at a
// published translation record (translate.go) or at a slot of the core's
// decode ring (decode); neither changes before the instruction dispatches.
type fetchedInst struct {
	pc        uint64
	d         *isa.Decoded
	predNext  uint64
	predTaken bool
}

// source is one captured operand. While its producer is still executing,
// dep points at the producer and (next, nextSlot) chain this slot into the
// producer's wake list.
type source struct {
	val      uint64
	dep      *entry
	next     *entry
	nextSlot uint8
	ready    bool
}

// entry is one RUU (window) slot. Only the opcode's class and access size
// are kept from isa.Info, and the small fields are packed at the tail, so
// the struct with its wake links fits the 192-byte allocator size class
// (TestEntrySizeClass).
type entry struct {
	seq uint64
	pc  uint64
	in  isa.Inst

	predNext uint64

	src [2]source

	// wakeHead/wakeSlot head the list of (consumer, source slot) pairs
	// waiting on this entry's result: captureSrc pushes, broadcast drains.
	wakeHead *entry

	doneAt uint64
	result uint64

	// memory state
	addr     uint64
	storeVal uint64

	actualNext uint64 // branch resolution

	fault error

	class    isa.Class
	memBytes int // access size (loads/stores)

	dest      int8 // regfile index (0..31 int, 32..63 fp), -1 none
	wakeSlot  uint8
	predTaken bool
	issued    bool
	done      bool
	addrReady bool
	missWait  bool // load waiting on a fill
	isSer     bool // serializing (FENCE/IFLUSH/HWBAR/HALT), precomputed

	isBranch     bool
	actualTaken  bool
	mispredicted bool
}

func (e *entry) isLoad() bool {
	return e.class == isa.ClassLoad
}

func (e *entry) isStore() bool {
	return e.class == isa.ClassStore
}

func (e *entry) isCacheOp() bool {
	return e.class == isa.ClassCacheOp
}

// isMem reports whether the entry occupies an LSQ slot.
func (e *entry) isMem() bool {
	return e.isLoad() || e.isStore() || e.isCacheOp()
}

func (e *entry) serializing() bool { return e.isSer }

// operandsReady reports whether both sources have been captured.
func (e *entry) operandsReady() bool { return e.src[0].ready && e.src[1].ready }

// insertByAge inserts e into the age-ordered list q. New arrivals are
// almost always the youngest, so the search runs from the tail.
func insertByAge(q []*entry, e *entry) []*entry {
	i := len(q)
	q = append(q, e)
	for ; i > 0 && q[i-1].seq > e.seq; i-- {
		q[i] = q[i-1]
	}
	q[i] = e
	return q
}

// removeAt deletes q[i], keeping order.
func removeAt(q []*entry, i int) []*entry {
	copy(q[i:], q[i+1:])
	return q[:len(q)-1]
}

// squashYounger drops every entry younger than seq from the tail of the
// age-ordered list q.
func squashYounger(q []*entry, seq uint64) []*entry {
	n := len(q)
	for n > 0 && q[n-1].seq > seq {
		n--
	}
	return q[:n]
}

// sbEntry is one post-commit store-buffer slot. pc is carried only for
// probe attribution (hbcheck race reports).
type sbEntry struct {
	cacheOp bool
	icache  bool
	addr    uint64
	size    int
	val     uint64
	pc      uint64
	token   uint64 // invalidation ID once issued, 0 before
}

// Core is one out-of-order SRISC core (or one context of an MTCore).
type Core struct {
	// Fields the machine loop reads for every awake core on every cycle,
	// and for a sleeping one when it wakes (Quiesced, Skip, Running), lead
	// the struct so those reads cost one cache line: quiescence state (see
	// quiesce.go), run state, and the per-cycle counters Skip credits a
	// quiesced core.
	quiesced    bool
	qFetchStall bool // skipped cycles count as FetchMissStalls
	qFenceStall bool // skipped cycles count as FenceStalls
	Halted      bool
	Fault       error

	Cycles          uint64
	FetchMissStalls uint64
	FenceStalls     uint64

	Cfg Config
	ID  int // logical thread/core id

	// physID is the physical core whose L1s and memory-system bookkeeping
	// this context uses (equal to ID for single-threaded cores).
	physID int

	sys  *mem.System
	l1i  *mem.L1
	l1d  *mem.L1
	bnet BarrierNet

	// Committed architectural state: x0..x31 then f0..f31.
	regs [64]uint64

	Console []uint64

	// Fetch.
	fetchPC        uint64
	fetchHoldUntil uint64
	fetchStopped   bool
	fetchBuf       []fetchedInst
	pred           *bimodal

	// Decode ring for the fetches the translation cache does not serve
	// (see decode); allocated on first use.
	decRing []isa.Decoded
	decNext int

	// Translation cache (nil = per-fetch decoding). curBlock is this
	// core's cached pointer to the block holding fetchPC; it is dropped
	// at IFLUSH and on any pipeline flush, and bypassed whenever the
	// block has been invalidated.
	trans    *TransCache
	curBlock *transBlock

	// Window.
	window     []*entry
	nextSeq    uint64
	producer   [64]*entry
	fenceBlock bool
	memOps     int

	sb []sbEntry

	// probe, when non-nil, receives this context's commits, committed loads,
	// performed stores and HWBAR signals (see mem.Probe).
	probe mem.Probe

	// LL/SC reservation.
	llAddr  uint64
	llValid bool

	divBusyUntil uint64
	hwbarSent    bool

	// siblings lists the other contexts sharing this physical core's L1
	// (multithreaded cores). A local store must clear their LL/SC
	// reservations on the written line: no coherence event fires for a
	// same-cache write, but the reservation is broken all the same.
	siblings []*Core

	entryPool []*entry

	// Reusable backing arrays for the three front-popped queues (see
	// pushQueue); steady-state push/pop traffic allocates nothing.
	fetchBack []fetchedInst
	winBack   []*entry
	sbBack    []sbEntry

	// Statistics (the per-cycle counters are in the header).
	Committed     uint64
	Mispredicts   uint64
	LoadsExecuted uint64
	StoresDrained uint64
	SCFailures    uint64

	// Scheduler side lists: each names the window entries one pipeline
	// stage can act on, oldest first, so no stage walks the window
	// (DESIGN.md §6, "wakeup/select"). All five are carved from one
	// backing array by allocLists and never grow.
	ready  []*entry // operands captured, unissued, non-serializing, not parked: issueStage
	flight []*entry // issued, not done, not missWait: completeStage
	missq  []*entry // loads waiting on a fill: missWaitStage
	storeq []*entry // in-window stores and cache-ops: loadOrdering
	parked []*entry // otherwise-ready loads behind a store whose address is unresolved

	// Periodic sleep (periodic.go); volatile counts what a period must not do.
	gate              gate
	per               period
	lookups, volatile uint64
}

// Validate reports the first parameter the pipeline cannot run with, as an
// error wrapping mem.ErrConfig. Every field is an int that must be positive
// (a zero stalls the pipeline forever) bar the two delays, which may be
// zero; the predictor tables must be powers of two.
func (c Config) Validate() error {
	v := reflect.ValueOf(c)
	for i := range v.NumField() {
		name, n := v.Type().Field(i).Name, v.Field(i).Int()
		if n < 0 || n == 0 && name != "RedirectPenalty" && name != "HWBarrierWireLat" {
			return fmt.Errorf("cpu: %s = %d is out of range: %w", name, n, mem.ErrConfig)
		}
	}
	if b, t := c.BimodalEntries, c.BTBEntries; b&(b-1) != 0 || t&(t-1) != 0 {
		return fmt.Errorf("cpu: predictor sizes %d and %d (BTB) must be powers of two: %w", b, t, mem.ErrConfig)
	}
	return nil
}

// New builds a core attached to its L1 caches in sys. bnet may be nil when
// the machine has no dedicated barrier network.
func New(cfg Config, id int, sys *mem.System, bnet BarrierNet) *Core {
	c := &Core{
		Cfg:  cfg,
		ID:   id,
		sys:  sys,
		l1i:  sys.L1I[id],
		l1d:  sys.L1D[id],
		bnet: bnet,
		pred: newBimodal(cfg.BimodalEntries, cfg.BTBEntries),
	}
	c.physID = id
	c.l1d.OnExtInval = c.onLineLost
	c.l1i.OnExtInval = nil
	c.Halted = true // not running until Reset
	return c
}

// Reset starts the core at pc with a0 = tid, a1 = nthreads and the given
// stack pointer.
func (c *Core) Reset(pc uint64, tid, nthreads int, sp uint64) {
	c.flushPipeline()
	for i := range c.regs {
		c.regs[i] = 0
	}
	c.regs[isa.RegA0] = uint64(tid)
	c.regs[isa.RegA1] = uint64(nthreads)
	c.regs[isa.RegSP] = sp
	c.fetchPC = pc
	c.fetchHoldUntil = 0
	c.Halted = false
	c.Fault = nil
	c.Console = nil
}

// Reg reads a committed register.
func (c *Core) Reg(i int) uint64 { return c.regs[i] }

// flushPipeline clears all speculative and in-flight state.
func (c *Core) flushPipeline() {
	c.window = nil
	c.fetchBuf = nil
	for i := range c.producer {
		c.producer[i] = nil
	}
	c.fenceBlock = false
	c.memOps = 0
	c.sb = nil
	c.llValid = false
	c.fetchStopped = false
	c.hwbarSent = false
	c.quiesced = false
	c.dropProof()
	c.curBlock = nil
	if c.ready == nil {
		c.allocLists()
	}
	c.ready, c.flight, c.missq, c.storeq, c.parked = c.ready[:0], c.flight[:0], c.missq[:0], c.storeq[:0], c.parked[:0]
}

// allocLists carves the scheduler side lists out of one allocation. ready
// and flight hold window entries (at most RUUSize), missq, storeq and parked
// hold LSQ occupants (at most LSQSize). The three-index slices keep a list
// from ever appending into its neighbour.
func (c *Core) allocLists() {
	ruu, lsq := c.Cfg.RUUSize, c.Cfg.LSQSize
	b := make([]*entry, 2*ruu+3*lsq)
	c.ready, b = b[:0:ruu], b[ruu:]
	c.flight, b = b[:0:ruu], b[ruu:]
	c.missq, b = b[:0:lsq], b[lsq:]
	c.storeq, c.parked = b[:0:lsq], b[lsq:lsq:2*lsq]
}

// pushQueue appends e to a queue whose consumers pop from the front with
// q = q[1:]. When the append would outgrow q's current backing array, the
// live elements are first compacted to the front of *back (allocated once
// at capacity bound), so the queue never grows a fresh array in steady
// state. bound must be at least twice the queue's maximum live length so a
// compaction always leaves room to append. Not sim.Queue: these queues are
// bounded and the hot pipeline loops index them as plain slices.
func pushQueue[T any](q []T, back *[]T, bound int, e T) []T {
	if len(q) == cap(q) {
		if cap(*back) < bound {
			*back = make([]T, bound)
		}
		n := copy((*back)[:bound], q)
		q = (*back)[:n]
	}
	return append(q, e)
}

// allocEntry takes an entry from the pool (or allocates one) and resets it.
func (c *Core) allocEntry() *entry {
	if n := len(c.entryPool); n > 0 {
		e := c.entryPool[n-1]
		c.entryPool = c.entryPool[:n-1]
		*e = entry{}
		return e
	}
	return &entry{}
}

// freeEntry returns a committed or squashed entry to the pool. Dangling
// dep pointers to freed entries are impossible: operands resolve before
// their producer commits (in-order commit), and squashes clear consumers
// together with producers (consumers are always younger).
func (c *Core) freeEntry(e *entry) {
	if len(c.entryPool) < 256 {
		c.entryPool = append(c.entryPool, e)
	}
}

// onLineLost clears the LL/SC reservation when its line leaves the L1.
func (c *Core) onLineLost(lineAddr uint64) {
	if c.llValid && c.lineOf(c.llAddr) == lineAddr {
		c.llValid = false
	}
}

// notifySiblingsOfWrite breaks sibling contexts' reservations covering a
// line this context just wrote (same-L1 writes produce no coherence event).
func (c *Core) notifySiblingsOfWrite(lineAddr uint64) {
	for _, s := range c.siblings {
		if s != c {
			s.onLineLost(lineAddr)
		}
	}
}

func (c *Core) lineOf(addr uint64) uint64 { return c.sys.Cfg.LineAddr(addr) }

// RaiseFault is used by the machine to deliver memory-system faults
// (barrier filter error responses) to this core.
func (c *Core) RaiseFault(err error) {
	if c.Fault == nil {
		c.Fault = err
	}
	c.Halted = true
	c.quiesced = false
}

// Running reports whether the core has work.
func (c *Core) Running() bool { return !c.Halted && c.Fault == nil }

// Drained reports whether all committed memory effects have reached the
// memory system (used on context switches), and no store-conditional has
// written memory without committing: an SC writes at issue, so squashing
// one that succeeded would make the thread repeat its LL/SC.
func (c *Core) Drained() bool {
	if len(c.sb) > 0 {
		return false
	}
	for _, e := range c.window {
		if e.in.Op == isa.SC && e.issued && e.result == 1 {
			return false
		}
	}
	return true
}

// ResumePC returns the precise architectural PC: the oldest in-flight
// instruction, or the fetch PC if the pipeline is empty.
func (c *Core) ResumePC() uint64 {
	if len(c.window) > 0 {
		return c.window[0].pc
	}
	if len(c.fetchBuf) > 0 {
		return c.fetchBuf[0].pc
	}
	return c.fetchPC
}

// Context captures the committed architectural register state.
func (c *Core) Context() (pc uint64, regs [64]uint64) {
	return c.ResumePC(), c.regs
}

// Deschedule squashes all in-flight work (the paper's context-switch case:
// a blocked fill's MSHR is squashed and the load will re-issue when the
// thread is rescheduled). The store buffer must be drained first.
func (c *Core) Deschedule() (pc uint64, regs [64]uint64, err error) {
	if !c.Drained() {
		return 0, c.regs, fmt.Errorf("cpu: core %d store buffer not drained", c.ID)
	}
	pc = c.ResumePC()
	c.flushPipeline()
	c.l1i.SquashMisses()
	c.l1d.SquashMisses()
	c.Halted = true
	return pc, c.regs, nil
}

// Restore schedules a saved context onto this core.
func (c *Core) Restore(pc uint64, regs [64]uint64) {
	c.flushPipeline()
	c.regs = regs
	c.fetchPC = pc
	c.fetchHoldUntil = 0
	c.Halted = false
	c.Fault = nil
}

// Tick advances the core one cycle.
func (c *Core) Tick(now uint64) {
	if !c.Running() {
		return
	}
	c.Cycles++
	c.completeStage(now)
	c.commitStage(now)
	c.drainStoreBuffer(now)
	c.missWaitStage(now)
	c.issueStage(now)
	c.dispatchStage()
	c.fetchStage(now)
}

// --- complete / wakeup -----------------------------------------------

func (c *Core) completeStage(now uint64) {
	// Retire finished executions in age order, waking their consumers;
	// resolve branches. A mispredict squashes everything younger, so the
	// walk stops there.
	w := 0
	for i, e := range c.flight {
		if e.doneAt > now {
			c.flight[w] = e
			w++
			continue
		}
		e.done = true
		c.broadcast(e)
		if e.mispredicted {
			c.Mispredicts++
			w += copy(c.flight[w:], c.flight[i+1:])
			c.flight = c.flight[:w]
			c.squashAfter(now, e)
			return
		}
	}
	c.flight = c.flight[:w]
}

// broadcast delivers a completed entry's result to the consumers on its
// wake list; one whose last operand this was becomes selectable. The
// sorted insert matters when issueStage itself broadcasts (faulting loads
// and SCs, illegal ops): the consumer is younger than the faulting entry,
// so it lands behind the cursor and is still visited in the same pass.
func (c *Core) broadcast(p *entry) {
	for e, slot := p.wakeHead, p.wakeSlot; e != nil; {
		s := &e.src[slot]
		s.val, s.ready, s.dep = p.result, true, nil
		if e.src[slot^1].ready && !e.issued && !e.isSer {
			c.ready = insertByAge(c.ready, e)
		}
		e, slot, s.next = s.next, s.nextSlot, nil
	}
	p.wakeHead = nil
}

// squashAfter removes all entries younger than e and redirects fetch.
func (c *Core) squashAfter(now uint64, e *entry) {
	keep := squashYounger(c.window, e.seq)
	sawLL := false
	for _, x := range c.window[len(keep):] {
		if x.in.Op == isa.LL && x.issued {
			sawLL = true
		}
		c.freeEntry(x)
	}
	c.window = keep
	c.ready = squashYounger(c.ready, e.seq)
	c.flight = squashYounger(c.flight, e.seq)
	c.missq = squashYounger(c.missq, e.seq)
	c.storeq = squashYounger(c.storeq, e.seq)
	c.parked = squashYounger(c.parked, e.seq)
	if sawLL {
		c.llValid = false
	}
	c.rebuildRename()
	c.fetchBuf = nil
	c.fetchStopped = false
	c.fetchPC = e.actualNext
	c.fetchHoldUntil = now + uint64(c.Cfg.RedirectPenalty)
}

// rebuildRename recomputes the producer table, dispatch bookkeeping and
// wake lists from the surviving window.
func (c *Core) rebuildRename() {
	for i := range c.producer {
		c.producer[i] = nil
	}
	c.memOps = 0
	c.fenceBlock = false
	for _, x := range c.window {
		if x.dest >= 0 {
			c.producer[x.dest] = x
		}
		if x.isMem() {
			c.memOps++
		}
		if x.serializing() {
			c.fenceBlock = true
		}
		// Re-link wake lists from surviving consumers only: squashed
		// consumers took their registrations with them. Deps point at
		// older entries, whose lists this walk has already reset.
		x.wakeHead = nil
		for i := range x.src {
			if d := x.src[i].dep; d != nil {
				c.awaitResult(x, i, d)
			}
		}
	}
}

// awaitResult registers consumer e's source slot on producer p's wake list.
func (c *Core) awaitResult(e *entry, slot int, p *entry) {
	e.src[slot] = source{dep: p, next: p.wakeHead, nextSlot: p.wakeSlot}
	p.wakeHead, p.wakeSlot = e, uint8(slot)
}

// execute marks e issued and puts it on the in-flight list until doneAt.
func (c *Core) execute(e *entry, doneAt uint64) {
	e.issued = true
	e.doneAt = doneAt
	c.flight = insertByAge(c.flight, e)
}

// --- commit ----------------------------------------------------------

func (c *Core) commitStage(now uint64) {
	for n := 0; n < c.Cfg.CommitWidth && len(c.window) > 0; n++ {
		e := c.window[0]
		if e.serializing() && !e.done {
			if !c.trySerializing(now, e) {
				c.FenceStalls++
				return
			}
		}
		if !e.done {
			return
		}
		if e.fault != nil {
			c.Fault = e.fault
			c.Halted = true
			return
		}
		switch {
		case e.isStore() && e.in.Op != isa.SC:
			if len(c.sb) >= c.Cfg.SBSize {
				return // store buffer full; retry next cycle
			}
			c.sb = pushQueue(c.sb, &c.sbBack, 2*c.Cfg.SBSize, sbEntry{addr: e.addr, size: e.memBytes, val: e.storeVal, pc: e.pc})
		case e.isCacheOp():
			if len(c.sb) >= c.Cfg.SBSize {
				return
			}
			c.sb = pushQueue(c.sb, &c.sbBack, 2*c.Cfg.SBSize, sbEntry{cacheOp: true, icache: e.in.Op == isa.ICBI, addr: e.addr})
		}
		if e.dest >= 0 {
			c.regs[e.dest] = e.result
			if c.producer[e.dest] == e {
				c.producer[e.dest] = nil
			}
		}
		if c.probe != nil {
			c.emitCommit(now, e)
		}
		if e.isBranch {
			if e.in.Op != isa.JAL && e.in.Op != isa.JALR && c.pred.updateDir(e.pc, e.actualTaken) {
				c.volatile++
			}
			if e.in.Op == isa.JALR && c.pred.updateTarget(e.pc, e.actualNext) {
				c.volatile++
			}
		}
		switch e.class {
		case isa.ClassHalt:
			c.Halted = true
			c.popHead(e)
			return
		case isa.ClassFence, isa.ClassHWBar:
			c.fenceBlock = false
		case isa.ClassIFlush:
			c.fenceBlock = false
			c.fetchBuf = nil
			c.fetchStopped = false
			c.fetchPC = e.pc + isa.WordBytes
			c.fetchHoldUntil = now + uint64(c.Cfg.RedirectPenalty)
			c.curBlock = nil // IFLUSH drops the translated-block pointer
		case isa.ClassOther:
			if e.in.Op == isa.OUT {
				c.Console = append(c.Console, e.src[0].val)
			}
		}
		c.popHead(e)
	}
}

// SetProbe attaches p to this context's event stream (nil detaches).
func (c *Core) SetProbe(p mem.Probe) { c.probe = p }

// emitCommit reports a committing instruction: a load's commit first, then
// the commit itself, whose next pc is a branch's resolved target and
// otherwise the fall-through fetch predicted.
func (c *Core) emitCommit(now uint64, e *entry) {
	if e.isLoad() {
		c.probe.OnEvent(mem.Event{Kind: mem.EvLoad, Now: now, Core: c.ID, PC: e.pc, Addr: e.addr, Size: e.memBytes})
	}
	next := e.predNext
	if e.isBranch {
		next = e.actualNext
	}
	c.probe.OnEvent(mem.Event{Kind: mem.EvCommit, Now: now, Core: c.ID, PC: e.pc, Next: next, Dest: int(e.dest), Value: e.result})
}

func (c *Core) popHead(e *entry) {
	c.window = c.window[1:]
	if e.isMem() {
		c.memOps--
		if !e.isLoad() {
			c.storeq = removeAt(c.storeq, 0) // e is the oldest in-window store
		}
	}
	c.Committed++
	c.freeEntry(e)
}

// trySerializing handles FENCE / IFLUSH / HWBAR / HALT at the window head.
// It returns true once the instruction is done and committable.
func (c *Core) trySerializing(now uint64, e *entry) bool {
	// A fence orders only this context's own memory operations: older
	// window entries are done (the fence is at the head), loads complete
	// only when their fill has arrived, stores and cache-ops sit in the
	// store buffer until performed/acknowledged. Shared-L1 state (a
	// sibling context's misses, wrong-path fills) is deliberately not
	// waited for.
	drained := len(c.sb) == 0
	switch e.class {
	case isa.ClassFence, isa.ClassHalt:
		if drained {
			e.done = true
		}
	case isa.ClassIFlush:
		// IFLUSH discards fetched instructions; it need not wait for
		// invalidation acknowledgements, only for pending cache-ops to
		// have been issued to the bus: the per-core request FIFO then
		// guarantees the bank sees the ICBI before the refetched fill
		// (the ordering the I-cache barrier relies on).
		if c.sbIssuedOnly() {
			e.done = true
		}
	case isa.ClassHWBar:
		if !drained {
			return false
		}
		c.volatile++
		if !c.hwbarSent {
			c.bnet.Arrive(now, c.ID, int(e.in.Imm))
			if c.probe != nil {
				c.probe.OnEvent(mem.Event{Kind: mem.EvHWBarArrive, Now: now, Core: c.ID, Key: uint64(e.in.Imm)})
			}
			c.hwbarSent = true
			return false
		}
		if c.bnet.TryRelease(now, c.ID, int(e.in.Imm)) {
			if c.probe != nil {
				c.probe.OnEvent(mem.Event{Kind: mem.EvHWBarRelease, Now: now, Core: c.ID, Key: uint64(e.in.Imm)})
			}
			// One cycle to check and reset the local status register.
			c.execute(e, now+1)
			c.hwbarSent = false
		}
		return false // commits once completeStage marks it done
	}
	return e.done
}

// --- store buffer ------------------------------------------------------

func (c *Core) drainStoreBuffer(now uint64) {
	if len(c.sb) == 0 {
		return
	}
	h := &c.sb[0]
	if h.cacheOp {
		if h.token == 0 {
			c.volatile++
			h.token = c.sys.IssueCacheInval(now, c.physID, h.addr, h.icache)
			if h.icache && c.trans != nil {
				c.trans.InvalidateLine(h.addr)
			}
			return
		}
		if !c.sys.InvalPending(c.physID, h.token) {
			c.sb = c.sb[1:]
		}
		return
	}
	switch c.l1d.WriteState(h.addr) {
	case mem.Modified:
		c.volatile++
		c.sys.Mem.Write(h.addr, h.size, h.val)
		if c.probe != nil {
			c.probe.OnEvent(mem.Event{Kind: mem.EvStore, Now: now, Core: c.ID, PC: h.pc, Addr: h.addr, Size: h.size})
		}
		c.notifySiblingsOfWrite(c.lineOf(h.addr))
		c.StoresDrained++
		c.sb = c.sb[1:]
	case mem.Shared:
		c.l1d.StartMiss(now, h.addr, mem.Upgrade, false)
	case mem.Invalid:
		c.l1d.StartMiss(now, h.addr, mem.GetM, false)
	}
}

// sbIssuedOnly reports whether every store-buffer entry is a cache-op whose
// invalidation has already been issued to the bus.
func (c *Core) sbIssuedOnly() bool {
	for i := range c.sb {
		if !c.sb[i].cacheOp || c.sb[i].token == 0 {
			return false
		}
	}
	return true
}

// --- loads waiting on fills --------------------------------------------

func (c *Core) missWaitStage(now uint64) {
	// Present refreshes LRU state and counts a hit, so every waiting load
	// is probed every cycle, oldest first.
	keep := c.missq[:0]
	for _, e := range c.missq {
		if c.l1d.Present(e.addr) {
			c.performLoad(now, e)
			continue
		}
		// MSHR may have been unavailable; keep trying.
		if !c.l1d.MissPending(e.addr) {
			c.l1d.StartMiss(now, e.addr, mem.GetS, false)
		}
		keep = append(keep, e)
	}
	c.missq = keep
}

// performLoad reads memory functionally and schedules completion. A load
// coming off the miss queue is dropped from it by the caller.
func (c *Core) performLoad(now uint64, e *entry) {
	v := c.sys.Mem.Read(e.addr, e.memBytes)
	e.result = signExtend(v, e.memBytes)
	e.missWait = false
	c.execute(e, now+1)
	c.LoadsExecuted++
	if e.in.Op == isa.LL {
		c.llAddr = e.addr
		c.llValid = true
	}
}

// --- issue -------------------------------------------------------------

func (c *Core) issueStage(now uint64) {
	issued := 0
	intUsed, mulUsed, fpUsed := 0, 0, 0
	memPortUsed := false
	// Oldest first over the ready list only. An entry that issues leaves
	// the list; one that loses its function unit or port, or fails the
	// memory-ordering rules, stays for the next cycle. A load behind a
	// store whose address is unresolved leaves it for the parked list,
	// taking neither an issue slot nor the port.
	for i := 0; i < len(c.ready) && issued < c.Cfg.IssueWidth; i++ {
		e := c.ready[i]
		switch e.class {
		case isa.ClassALU, isa.ClassBranch, isa.ClassJump:
			if intUsed >= c.Cfg.IntALUs {
				continue
			}
			intUsed++
			c.executeSimple(now, e, 1)
		case isa.ClassMul:
			if mulUsed >= c.Cfg.IntMulDiv {
				continue
			}
			mulUsed++
			c.executeSimple(now, e, uint64(c.Cfg.IntMulLat))
		case isa.ClassDiv:
			if mulUsed >= c.Cfg.IntMulDiv || now < c.divBusyUntil {
				continue
			}
			mulUsed++
			c.divBusyUntil = now + uint64(c.Cfg.IntDivLat)
			c.executeSimple(now, e, uint64(c.Cfg.IntDivLat))
		case isa.ClassFPAdd:
			if fpUsed >= c.Cfg.FPUnits {
				continue
			}
			fpUsed++
			c.executeSimple(now, e, uint64(c.Cfg.FPAddLat))
		case isa.ClassFPMul:
			if fpUsed >= c.Cfg.FPUnits {
				continue
			}
			fpUsed++
			c.executeSimple(now, e, uint64(c.Cfg.FPMulLat))
		case isa.ClassFPDiv:
			if fpUsed >= c.Cfg.FPUnits {
				continue
			}
			fpUsed++
			c.executeSimple(now, e, uint64(c.Cfg.FPDivLat))
		case isa.ClassOther:
			if intUsed >= c.Cfg.IntALUs {
				continue
			}
			intUsed++
			c.execute(e, now+1)
		case isa.ClassLoad:
			if memPortUsed {
				continue
			}
			switch ok, parked := c.tryIssueLoad(now, e); {
			case parked:
				c.ready = removeAt(c.ready, i)
				i--
				continue
			case !ok:
				continue
			}
			memPortUsed = true
		case isa.ClassStore:
			if e.in.Op == isa.SC {
				if memPortUsed || !c.tryIssueSC(now, e) {
					continue
				}
				memPortUsed = true
			} else {
				if intUsed >= c.Cfg.IntALUs {
					continue
				}
				intUsed++
				c.executeStore(now, e)
			}
		case isa.ClassCacheOp:
			if intUsed >= c.Cfg.IntALUs {
				continue
			}
			intUsed++
			c.executeCacheOp(now, e)
		default:
			// BAD and anything unknown: fault at commit.
			e.issued = true
			e.done = true
			e.fault = fmt.Errorf("cpu: illegal instruction %v at %#x", e.in.Op, e.pc)
			c.broadcast(e)
			c.ready = removeAt(c.ready, i)
			i--
			continue // takes no issue slot
		}
		issued++
		c.ready = removeAt(c.ready, i)
		i--
	}
}

func (c *Core) executeSimple(now uint64, e *entry, lat uint64) {
	c.execute(e, now+lat)
	switch e.class {
	case isa.ClassBranch:
		e.isBranch = true
		e.actualTaken, e.actualNext = branchOutcome(e.in, e.pc, e.src[0].val, e.src[1].val)
		e.mispredicted = e.actualNext != e.predNext
	case isa.ClassJump:
		e.isBranch = true
		e.actualTaken = true
		e.result = e.pc + isa.WordBytes
		if e.in.Op == isa.JAL {
			e.actualNext = uint64(int64(e.pc) + int64(e.in.Imm))
		} else {
			e.actualNext = uint64(int64(e.src[0].val) + int64(e.in.Imm))
		}
		e.mispredicted = e.actualNext != e.predNext
	default:
		e.result = aluResult(e.in, e.src[0].val, e.src[1].val)
	}
}

func (c *Core) executeStore(now uint64, e *entry) {
	e.addr = uint64(int64(e.src[0].val) + int64(e.in.Imm))
	c.addrResolved(e)
	e.storeVal = e.src[1].val
	c.execute(e, now+1)
	if e.addr&uint64(e.memBytes-1) != 0 { // sizes are powers of two
		e.fault = fmt.Errorf("cpu: misaligned %d-byte store to %#x at pc %#x", e.memBytes, e.addr, e.pc)
	}
	if e.addr < 0x1000 {
		e.fault = fmt.Errorf("cpu: null store to %#x at pc %#x", e.addr, e.pc)
	}
}

func (c *Core) executeCacheOp(now uint64, e *entry) {
	e.addr = c.lineOf(uint64(int64(e.src[0].val) + int64(e.in.Imm)))
	c.addrResolved(e)
	c.execute(e, now+1)
}

// addrResolved marks the address of store, SC or cache-op e known and
// releases the parked loads no older unresolved address blocks any more:
// those older than the next unresolved storeq entry. They are younger than
// e (an older one has an older blocker still), and e is what issueStage is
// issuing, so the sorted insert puts them behind its cursor and the same
// pass selects them.
func (c *Core) addrResolved(e *entry) {
	e.addrReady = true
	if len(c.parked) == 0 {
		return
	}
	next := ^uint64(0)
	for _, o := range c.storeq {
		if !o.addrReady {
			next = o.seq
			break
		}
	}
	n := 0
	for ; n < len(c.parked) && c.parked[n].seq < next; n++ {
		c.ready = insertByAge(c.ready, c.parked[n])
	}
	c.parked = c.parked[:copy(c.parked, c.parked[n:])]
}

// tryIssueLoad applies the memory-ordering rules and starts the access. A
// load behind a store, SC or cache-op whose address is unresolved cannot
// issue before that address is known, whatever else the rules say: it is
// moved to the parked list (parked = true, and the caller drops it from
// ready) until addrResolved releases it.
func (c *Core) tryIssueLoad(now uint64, e *entry) (ok, parked bool) {
	addr := uint64(int64(e.src[0].val) + int64(e.in.Imm))
	if addr&uint64(e.memBytes-1) != 0 || addr < 0x1000 { // sizes are powers of two
		e.addr = addr
		e.issued = true
		e.done = true
		e.fault = fmt.Errorf("cpu: bad %d-byte load from %#x at pc %#x", e.memBytes, addr, e.pc)
		c.broadcast(e)
		return true, false
	}
	for _, o := range c.storeq {
		if o.seq >= e.seq {
			break
		}
		if !o.addrReady {
			c.parked = insertByAge(c.parked, e)
			return false, true
		}
	}
	fwd, hasFwd, ok := c.loadOrdering(e, addr)
	if !ok {
		return false, false
	}
	e.addr = addr
	e.addrReady = true
	e.issued = true
	if e.in.Op == isa.LL && hasFwd {
		// LL ignores forwarding: it needs the line in the cache for
		// the reservation to mean anything.
		e.missWait = true
		c.missq = insertByAge(c.missq, e)
		e.doneAt = ^uint64(0)
		if !c.l1d.Present(addr) {
			c.l1d.StartMiss(now, addr, mem.GetS, false)
		}
		return true, false
	}
	if hasFwd {
		e.result = signExtend(fwd, e.memBytes)
		c.execute(e, now+1)
		c.LoadsExecuted++
		return true, false
	}
	if c.l1d.Present(addr) {
		c.performLoad(now, e)
		return true, false
	}
	e.missWait = true
	c.missq = insertByAge(c.missq, e)
	e.doneAt = ^uint64(0) // not done until the fill arrives (performLoad)
	c.l1d.StartMiss(now, addr, mem.GetS, false)
	return true, false
}

// loadOrdering checks this load against older stores and cache-ops in the
// store buffer and the store queue, all of whose addresses are known (the
// load would be parked otherwise). It returns (forwardedValue, haveForward,
// okToIssue).
func (c *Core) loadOrdering(e *entry, addr uint64) (uint64, bool, bool) {
	size := uint64(e.memBytes)
	line := c.lineOf(addr)
	var fwd uint64
	hasFwd := false

	// Committed store buffer first (oldest); later matches override.
	for i := range c.sb {
		h := &c.sb[i]
		if h.cacheOp {
			// A same-line cache-op blocks the load only until its
			// invalidation has been issued: the local line is dead
			// by then and the bus FIFO orders the broadcast before
			// the load's fill request.
			if h.token == 0 && c.lineOf(h.addr) == line {
				return 0, false, false
			}
			continue
		}
		f, covered, conflict := coverCheck(h.addr, uint64(h.size), h.val, addr, size)
		if conflict {
			return 0, false, false
		}
		if covered {
			fwd, hasFwd = f, true
		}
	}
	// Older in-window stores and cache-ops.
	for _, o := range c.storeq {
		if o.seq >= e.seq {
			break
		}
		if o.isCacheOp() {
			if c.lineOf(o.addr) == line {
				return 0, false, false
			}
			continue
		}
		if o.in.Op == isa.SC {
			// SC writes memory directly when it performs; a younger
			// load to the same line must wait for it and then read
			// the memory image (no forwarding).
			if !o.done && c.lineOf(o.addr) == line {
				return 0, false, false
			}
			continue
		}
		f, covered, conflict := coverCheck(o.addr, uint64(o.memBytes), o.storeVal, addr, size)
		if conflict {
			return 0, false, false
		}
		if covered {
			fwd, hasFwd = f, true
		}
	}
	return fwd, hasFwd, true
}

// coverCheck classifies an older store against a load: full coverage allows
// forwarding (value, covered=true), partial overlap blocks the load
// (conflict=true), disjoint accesses report neither.
func coverCheck(sAddr, sSize uint64, sVal uint64, lAddr, lSize uint64) (val uint64, covered, conflict bool) {
	if sAddr+sSize <= lAddr || lAddr+lSize <= sAddr {
		return 0, false, false // disjoint
	}
	if sAddr <= lAddr && lAddr+lSize <= sAddr+sSize {
		shift := (lAddr - sAddr) * 8
		return sVal >> shift, true, false
	}
	return 0, false, true // partial overlap
}

// tryIssueSC issues a store-conditional. SC is non-speculative: it waits
// until it is the only incomplete instruction and the store buffer has
// drained, then performs atomically.
func (c *Core) tryIssueSC(now uint64, e *entry) bool {
	if len(c.sb) != 0 {
		return false
	}
	for _, o := range c.window {
		if o.seq >= e.seq {
			break
		}
		if !o.done {
			return false
		}
	}
	addr := uint64(int64(e.src[0].val) + int64(e.in.Imm))
	e.addr = addr
	if addr&7 != 0 || addr < 0x1000 {
		e.issued = true
		e.done = true
		e.fault = fmt.Errorf("cpu: bad SC to %#x at pc %#x", addr, e.pc)
		c.broadcast(e)
		return true
	}
	if !c.llValid || c.lineOf(c.llAddr) != c.lineOf(addr) {
		c.failSC(now, e)
		return true
	}
	switch c.l1d.WriteState(addr) {
	case mem.Modified:
		c.volatile++
		c.sys.Mem.Write(addr, 8, e.src[1].val)
		if c.probe != nil {
			c.probe.OnEvent(mem.Event{Kind: mem.EvStore, Now: now, Core: c.ID, PC: e.pc, Addr: addr, Size: 8})
		}
		c.notifySiblingsOfWrite(c.lineOf(addr))
		c.execute(e, now+1)
		c.addrResolved(e)
		e.result = 1
		c.llValid = false
		return true
	case mem.Shared:
		c.l1d.StartMiss(now, addr, mem.Upgrade, false)
		return false
	default:
		// Line lost: the reservation is gone too (onLineLost), but be
		// defensive and fail rather than fetch the line again.
		c.failSC(now, e)
		return true
	}
}

// failSC completes a store-conditional whose reservation is gone.
func (c *Core) failSC(now uint64, e *entry) {
	c.execute(e, now+1)
	c.addrResolved(e)
	e.result = 0
	c.llValid = false
	c.SCFailures++
}

// --- dispatch ----------------------------------------------------------

func (c *Core) dispatchStage() {
	for n := 0; n < c.Cfg.DecodeWidth; n++ {
		if len(c.fetchBuf) == 0 || len(c.window) >= c.Cfg.RUUSize || c.fenceBlock {
			return
		}
		f := &c.fetchBuf[0]
		d := f.d
		if d.Mem && c.memOps >= c.Cfg.LSQSize {
			return
		}
		c.nextSeq++
		e := c.allocEntry()
		e.seq = c.nextSeq
		e.pc = f.pc
		e.in = d.In
		e.class = d.Class
		e.memBytes = d.MemBytes
		e.predTaken = f.predTaken
		e.predNext = f.predNext
		e.dest = d.Dest
		e.isSer = d.Ser
		// Capture sources and destination from the pre-bound record.
		c.captureSrc(e, 0, int(d.Src0))
		c.captureSrc(e, 1, int(d.Src1))
		if e.dest >= 0 {
			c.producer[e.dest] = e
		}
		if d.Mem {
			c.memOps++
			if !e.isLoad() {
				c.storeq = append(c.storeq, e)
			}
		}
		if d.Ser {
			c.fenceBlock = true
		}
		if d.In.Op == isa.BAD {
			e.issued = true
			e.done = true
			e.fault = fmt.Errorf("cpu: illegal instruction at %#x", f.pc)
		}
		if d.In.Op == isa.NOP {
			e.issued = true
			e.done = true
		}
		if e.operandsReady() && !e.issued && !e.isSer {
			c.ready = append(c.ready, e) // youngest in the window
		}
		c.fetchBuf = c.fetchBuf[1:]
		c.window = pushQueue(c.window, &c.winBack, 2*c.Cfg.RUUSize, e)
	}
}

// decode predecodes the memory word at pc into the next slot of the decode
// ring. A slot is rewritten only 4*FetchWidth decodes later, and fetchStage
// pushes only while the fetch buffer holds fewer instructions than that, so
// no instruction still waiting there can lose its record.
func (c *Core) decode(pc uint64) *isa.Decoded {
	if c.decRing == nil {
		c.decRing = make([]isa.Decoded, 4*c.Cfg.FetchWidth)
	}
	d := &c.decRing[c.decNext]
	c.decNext = (c.decNext + 1) % len(c.decRing)
	*d = isa.Predecode(c.sys.Mem.ReadUint64(pc))
	return d
}

func (c *Core) captureSrc(e *entry, slot, reg int) {
	if reg < 0 || reg == 0 { // no source or x0
		e.src[slot] = source{val: 0, ready: true}
		return
	}
	if p := c.producer[reg]; p != nil {
		if p.done {
			e.src[slot] = source{val: p.result, ready: true}
		} else {
			c.awaitResult(e, slot, p)
		}
		return
	}
	e.src[slot] = source{val: c.regs[reg], ready: true}
}

// --- fetch ---------------------------------------------------------------

func (c *Core) fetchStage(now uint64) {
	if now < c.fetchHoldUntil || c.fetchStopped {
		return
	}
	lineMask := uint64(c.sys.Cfg.LineBytes - 1)
	lineOK := uint64(1) // no line verified yet (1 is never line-aligned)
	for n := 0; n < c.Cfg.FetchWidth; n++ {
		if len(c.fetchBuf) >= 4*c.Cfg.FetchWidth {
			return
		}
		if line := c.fetchPC &^ lineMask; line != lineOK {
			if !c.l1i.Present(c.fetchPC) {
				c.FetchMissStalls++
				c.l1i.StartMiss(now, c.fetchPC, mem.GetI, false)
				return
			}
			lineOK = line
		}
		var d *isa.Decoded
		if c.trans != nil && c.fetchPC%isa.WordBytes == 0 {
			base := c.fetchPC &^ c.trans.lineMask
			b := c.curBlock
			if b == nil || !b.valid || b.base != base {
				miss := c.trans.Misses
				b = c.trans.Block(base)
				c.curBlock = b
				c.lookups++
				c.volatile += c.trans.Misses - miss
			}
			d = &b.recs[(c.fetchPC-base)/isa.WordBytes]
		} else {
			// No translator, or a misaligned PC (reachable through JALR):
			// decode the current memory word directly. Misaligned fetches
			// straddle record boundaries, so they always bypass the cache.
			d = c.decode(c.fetchPC)
		}
		f := fetchedInst{pc: c.fetchPC, d: d, predNext: c.fetchPC + isa.WordBytes}
		switch d.Class {
		case isa.ClassBranch:
			if c.pred.predictDir(c.fetchPC) {
				f.predTaken = true
				f.predNext = uint64(int64(c.fetchPC) + int64(d.In.Imm))
			}
		case isa.ClassJump:
			if d.In.Op == isa.JAL {
				f.predTaken = true
				f.predNext = uint64(int64(c.fetchPC) + int64(d.In.Imm))
			} else if t, ok := c.pred.predictTarget(c.fetchPC); ok {
				f.predTaken = true
				f.predNext = t
			}
		case isa.ClassHalt:
			c.fetchStopped = true
		}
		c.fetchBuf = pushQueue(c.fetchBuf, &c.fetchBack, 8*c.Cfg.FetchWidth, f)
		prev := c.fetchPC
		c.fetchPC = f.predNext
		if c.fetchStopped {
			return
		}
		if f.predTaken {
			return // taken control flow ends the fetch group
		}
		if (prev | lineMask) != (c.fetchPC | lineMask) {
			return // crossed a cache-line boundary
		}
	}
}
