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
	// Parked reports whether core, arrived at barrier id, would see
	// TryRelease fail at every cycle from now until a release the device
	// announces ahead of time (hwnet.Net.NextRelease): a HWBAR waiter
	// may then quiesce, and the machine wakes it at that cycle.
	Parked(now uint64, core, id int) bool
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
// dep names the producer and (next, nextSrc) chain this operand into the
// producer's wake list.
type source struct {
	val     uint64
	dep     slot
	next    slot
	nextSrc uint8
	ready   bool
}

// slot names a window entry: its index in the RUU ring's array plus one, so
// a zero producer, dependence or wake link names none. A slot is reused only
// after its entry commits or is squashed, when nothing names it any more;
// growWindow renames every slot.
type slot uint16

// maxRUU is the largest window a slot can name.
const maxRUU = 1<<16 - 1

// entry is one instruction in the RUU. It holds no pointer
// (TestEntryPointerFree): links to other entries are slots and a fault is a
// code, so the ring is one no-scan array and no list edit runs a GC write
// barrier. Only the opcode's class and access size are kept from isa.Info,
// and a store's value is its second operand: at 128 bytes, a slot's address
// is a shift, not a multiply.
type entry struct {
	seq uint64
	pc  uint64
	in  isa.Inst

	predNext uint64

	src [2]source

	doneAt uint64
	result uint64

	addr uint64 // a store's value is its src[1]

	actualNext uint64 // branch resolution

	class    isa.Class
	memBytes int // access size (loads/stores)

	// wakeHead/wakeSrc head the list of (consumer, source) pairs waiting
	// on this entry's result: captureSrc pushes, broadcast drains.
	wakeHead slot
	self     slot // the slot naming this entry

	dest      int8 // regfile index (0..31 int, 32..63 fp), -1 none
	wakeSrc   uint8
	fault     faultCode
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

// faultCode is the fault an entry raises when it reaches commit, and an
// index into faultText.
type faultCode uint8

const (
	noFault         faultCode = iota
	faultBadLoad              // misaligned or null load
	faultMisaligned           // misaligned store
	faultNullStore
	faultBadSC // misaligned or null SC
	faultBad   // BAD, at dispatch
)

// faultText formats each fault from the entry's access size, address, pc
// and opcode, in that order (err).
var faultText = [...]string{
	faultBadLoad:    "cpu: bad %[1]d-byte load from %#[2]x at pc %#[3]x",
	faultMisaligned: "cpu: misaligned %[1]d-byte store to %#[2]x at pc %#[3]x",
	faultNullStore:  "cpu: null store to %#[2]x at pc %#[3]x",
	faultBadSC:      "cpu: bad SC to %#[2]x at pc %#[3]x",
	faultBad:        "cpu: illegal instruction at %#[3]x",
}

func (e *entry) err() error { return fmt.Errorf(faultText[e.fault], e.memBytes, e.addr, e.pc, e.in.Op) }

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

// ring is a FIFO over a fixed array: element i (0 the oldest) is
// buf[(head+i) mod len(buf)]. Callers keep n <= len(buf).
type ring[T any] struct {
	buf     []T
	head, n int
}

// idx is the array index of element i, for i <= n.
func (r *ring[T]) idx(i int) int {
	if i += r.head; i >= len(r.buf) {
		i -= len(r.buf)
	}
	return i
}

func (r *ring[T]) at(i int) *T { return &r.buf[r.idx(i)] }

func (r *ring[T]) push(v T) {
	r.buf[r.idx(r.n)] = v
	r.n++
}

func (r *ring[T]) pop() {
	r.head = r.idx(1)
	r.n--
}

// slots is one scheduler side list: window slots, oldest first, in an array
// allocLists carves once, and its length.
type slots struct {
	s []slot
	n int
}

func (q *slots) live() []slot { return q.s[:q.n] }

func (q *slots) push(s slot) {
	q.s[q.n] = s
	q.n++
}

// removeAt deletes the i-th slot, keeping order.
func (q *slots) removeAt(i int) { q.n = i + copy(q.s[i:q.n], q.s[i+1:q.n]) }

// at is the entry slot s names.
func (c *Core) at(s slot) *entry { return &c.win.buf[s-1] }

// insertByAge inserts s into the age-ordered list q. New arrivals are
// almost always the youngest, so the search runs from the tail.
func (c *Core) insertByAge(q *slots, s slot) {
	seq := c.at(s).seq
	i := q.n
	q.n++
	for ; i > 0 && c.at(q.s[i-1]).seq > seq; i-- {
		q.s[i] = q.s[i-1]
	}
	q.s[i] = s
}

// squashYounger drops every entry younger than seq from the tail of the
// age-ordered list q.
func (c *Core) squashYounger(q *slots, seq uint64) {
	for q.n > 0 && c.at(q.s[q.n-1]).seq > seq {
		q.n--
	}
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
	// Fields the machine loop reads for every awake core on every cycle
	// (Running), and the per-cycle counters Skip credits a quiescent core,
	// lead the struct so those reads cost one cache line.
	Halted bool
	Fault  error

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
	fetchBuf       ring[fetchedInst]
	pred           *bimodal

	// Decode ring for the fetches the translation cache does not serve
	// (see decode); allocated on first use.
	decRing []isa.Decoded
	decNext int

	// Translation cache (nil = per-fetch decoding). curBlock is this
	// core's cached pointer to the block holding fetchPC; it is dropped
	// on any pipeline flush, and bypassed whenever the block has been
	// invalidated.
	trans    *TransCache
	curBlock *transBlock

	// Window: the RUU, a ring of entries that slots name (growWindow).
	win        ring[entry]
	nextSeq    uint64
	producer   [64]slot
	fenceBlock bool
	memOps     int

	sb ring[sbEntry]

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

	// Statistics (the per-cycle counters are in the header).
	Committed     uint64
	Mispredicts   uint64
	LoadsExecuted uint64
	StoresDrained uint64
	SCFailures    uint64

	// Scheduler side lists: each names the window entries one pipeline
	// stage can act on, oldest first, so no stage walks the window
	// (DESIGN.md §6, "wakeup/select"). All five are carved from one
	// array by allocLists.
	ready  slots // operands captured, unissued, non-serializing, not parked: issueStage
	flight slots // issued, not done, not missWait: completeStage
	missq  slots // loads waiting on a fill: missWaitStage
	storeq slots // in-window stores and cache-ops: loadOrdering
	parked slots // otherwise-ready loads behind a store whose address is unresolved

	// missWaitStage's gate (missIdle): the L1D's Frees at the last scan,
	// and whether a load may since wait on a present line or without an
	// MSHR. MissScans counts the scans that ran on a non-empty missq, for
	// tests to bound (Skip credits none).
	missFrees uint64
	missDirty bool
	MissScans uint64

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
	if c.RUUSize > maxRUU {
		return fmt.Errorf("cpu: RUUSize = %d is over %d, the most a window slot names: %w", c.RUUSize, maxRUU, mem.ErrConfig)
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
	if c.win.buf == nil {
		c.allocLists()
	}
	c.win.n, c.fetchBuf.n, c.sb.n = 0, 0, 0
	c.producer = [64]slot{}
	c.fenceBlock = false
	c.memOps = 0
	c.llValid = false
	c.fetchStopped = false
	c.hwbarSent = false
	c.dropProof()
	c.curBlock = nil
	c.ready.n, c.flight.n, c.missq.n, c.storeq.n, c.parked.n = 0, 0, 0, 0, 0
}

// allocLists allocates the window, fetch buffer and store buffer rings and
// carves the scheduler side lists out of one array: ready and flight hold
// window entries (at most RUUSize), missq, storeq and parked LSQ occupants
// (at most LSQSize). The window ring starts at firstRUU entries (see
// growWindow); nothing else allocates after it.
func (c *Core) allocLists() {
	ruu, lsq := c.Cfg.RUUSize, c.Cfg.LSQSize
	c.win.buf = make([]entry, min(ruu, firstRUU))
	c.fetchBuf.buf = make([]fetchedInst, 4*c.Cfg.FetchWidth)
	c.sb.buf = make([]sbEntry, c.Cfg.SBSize)
	b := make([]slot, 2*ruu+3*lsq)
	c.ready.s, b = b[:ruu], b[ruu:]
	c.flight.s, b = b[:ruu], b[ruu:]
	c.missq.s, b = b[:lsq], b[lsq:]
	c.storeq.s, c.parked.s = b[:lsq], b[lsq:]
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
}

// Running reports whether the core has work.
func (c *Core) Running() bool { return !c.Halted && c.Fault == nil }

// Drained reports whether all committed memory effects have reached the
// memory system (used on context switches), and no instruction has acted
// outside the core without committing: an SC writes at issue, and a HWBAR
// signals its arrival before it commits, so squashing either would make the
// thread repeat it (an LL/SC retried, a barrier arrival counted twice). A
// HWBAR wait therefore cannot be preempted.
func (c *Core) Drained() bool {
	if c.sb.n > 0 || c.hwbarSent {
		return false
	}
	for i := range c.win.n {
		if e := c.win.at(i); e.issued && (e.in.Op == isa.SC && e.result == 1 || e.class == isa.ClassHWBar) {
			return false
		}
	}
	return true
}

// ResumePC returns the precise architectural PC: the oldest in-flight
// instruction, or the fetch PC if the pipeline is empty.
func (c *Core) ResumePC() uint64 {
	if c.win.n > 0 {
		return c.win.at(0).pc
	}
	if c.fetchBuf.n > 0 {
		return c.fetchBuf.at(0).pc
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
	q := c.flight.live()
	w := 0
	for i, s := range q {
		e := c.at(s)
		if e.doneAt > now {
			q[w] = s
			w++
			continue
		}
		e.done = true
		c.broadcast(e)
		if e.mispredicted {
			c.Mispredicts++
			c.flight.n = w + copy(q[w:], q[i+1:])
			c.squashAfter(now, e)
			return
		}
	}
	c.flight.n = w
}

// broadcast delivers a completed entry's result to the consumers on its
// wake list; one whose last operand this was becomes selectable. The
// sorted insert matters when issueStage itself broadcasts (faulting loads
// and SCs, illegal ops): the consumer is younger than the faulting entry,
// so it lands behind the cursor and is still visited in the same pass.
func (c *Core) broadcast(p *entry) {
	for s, k := p.wakeHead, p.wakeSrc; s != 0; {
		e := c.at(s)
		src := &e.src[k]
		src.val, src.ready, src.dep = p.result, true, 0
		if e.src[k^1].ready && !e.issued && !e.isSer {
			c.insertByAge(&c.ready, s)
		}
		s, k, src.next = src.next, src.nextSrc, 0
	}
	p.wakeHead = 0
}

// squashAfter removes all entries younger than e and redirects fetch.
func (c *Core) squashAfter(now uint64, e *entry) {
	n := c.win.n
	sawLL := false
	for ; n > 0 && c.win.at(n-1).seq > e.seq; n-- {
		if x := c.win.at(n - 1); x.in.Op == isa.LL && x.issued {
			sawLL = true
		}
	}
	c.win.n = n
	for _, q := range [...]*slots{&c.ready, &c.flight, &c.missq, &c.storeq, &c.parked} {
		c.squashYounger(q, e.seq)
	}
	if sawLL {
		c.llValid = false
	}
	c.rebuildRename()
	c.fetchBuf.n = 0
	c.fetchStopped = false
	c.fetchPC = e.actualNext
	c.fetchHoldUntil = now + uint64(c.Cfg.RedirectPenalty)
}

// rebuildRename recomputes the producer table, dispatch bookkeeping and
// wake lists from the surviving window.
func (c *Core) rebuildRename() {
	c.producer = [64]slot{}
	c.memOps = 0
	c.fenceBlock = false
	for i := range c.win.n {
		x := c.win.at(i)
		if x.dest >= 0 {
			c.producer[x.dest] = x.self
		}
		if x.isMem() {
			c.memOps++
		}
		if x.serializing() {
			c.fenceBlock = true
		}
		// Re-link wake lists from surviving consumers only: squashed
		// consumers took their registrations with them. Deps name
		// older entries, whose lists this walk has already reset.
		x.wakeHead = 0
		for k := range x.src {
			if d := x.src[k].dep; d != 0 {
				c.awaitResult(x, k, c.at(d))
			}
		}
	}
}

// awaitResult registers consumer e's source k on producer p's wake list.
func (c *Core) awaitResult(e *entry, k int, p *entry) {
	e.src[k] = source{dep: p.self, next: p.wakeHead, nextSrc: p.wakeSrc}
	p.wakeHead, p.wakeSrc = e.self, uint8(k)
}

// execute marks e issued and puts it on the in-flight list until doneAt.
func (c *Core) execute(e *entry, doneAt uint64) {
	e.issued = true
	e.doneAt = doneAt
	c.insertByAge(&c.flight, e.self)
}

// --- commit ----------------------------------------------------------

func (c *Core) commitStage(now uint64) {
	for n := 0; n < c.Cfg.CommitWidth && c.win.n > 0; n++ {
		e := c.win.at(0)
		if e.serializing() && !e.done {
			if !c.trySerializing(now, e) {
				c.FenceStalls++
				return
			}
		}
		if !e.done {
			return
		}
		if e.fault != noFault {
			c.Fault = e.err()
			c.Halted = true
			return
		}
		switch {
		case e.isStore() && e.in.Op != isa.SC:
			if c.sb.n >= c.Cfg.SBSize {
				return // store buffer full; retry next cycle
			}
			c.sb.push(sbEntry{addr: e.addr, size: e.memBytes, val: e.src[1].val, pc: e.pc})
		case e.isCacheOp():
			if c.sb.n >= c.Cfg.SBSize {
				return
			}
			c.sb.push(sbEntry{cacheOp: true, icache: e.in.Op == isa.ICBI, addr: e.addr})
		}
		if e.dest >= 0 {
			c.regs[e.dest] = e.result
			if c.producer[e.dest] == e.self {
				c.producer[e.dest] = 0
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
			c.fetchBuf.n = 0
			c.fetchStopped = false
			c.fetchPC = e.pc + isa.WordBytes
			c.fetchHoldUntil = now + uint64(c.Cfg.RedirectPenalty)
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
	c.win.pop()
	if e.isMem() {
		c.memOps--
		if !e.isLoad() {
			c.storeq.removeAt(0) // e is the oldest in-window store
		}
	}
	c.Committed++
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
	drained := c.sb.n == 0
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
			c.hwbarSent = true
			return false
		}
		if c.bnet.TryRelease(now, c.ID, int(e.in.Imm)) {
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
	if c.sb.n == 0 {
		return
	}
	h := c.sb.at(0)
	if h.cacheOp {
		if h.token == 0 {
			c.volatile++
			h.token = c.sys.IssueCacheInval(now, c.physID, h.addr, h.icache)
			return
		}
		if !c.sys.InvalPending(c.physID, h.token) {
			c.sb.pop()
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
		c.sb.pop()
	case mem.Shared:
		c.l1d.StartMiss(now, h.addr, mem.Upgrade, false)
	case mem.Invalid:
		c.l1d.StartMiss(now, h.addr, mem.GetM, false)
	}
}

// sbIssuedOnly reports whether every store-buffer entry is a cache-op whose
// invalidation has already been issued to the bus.
func (c *Core) sbIssuedOnly() bool {
	for i := range c.sb.n {
		if h := c.sb.at(i); !h.cacheOp || h.token == 0 {
			return false
		}
	}
	return true
}

// --- loads waiting on fills --------------------------------------------

func (c *Core) missWaitStage(now uint64) {
	// Probing an absent line changes nothing, so the waiting loads are
	// probed, oldest first, only when one may find its line or lack an
	// MSHR (missIdle; DESIGN.md §6, "Wakeup/select").
	if c.missq.n == 0 || c.missIdle() {
		return
	}
	c.MissScans++
	c.missFrees, c.missDirty = c.l1d.Frees(), false
	q, keep := c.missq.live(), 0
	for _, s := range q {
		e := c.at(s)
		if c.l1d.Present(e.addr) {
			c.performLoad(now, e)
			continue
		}
		// MSHR may have been unavailable; keep trying.
		if !c.l1d.MissPending(e.addr) && !c.l1d.StartMiss(now, e.addr, mem.GetS, false) {
			c.missDirty = true
		}
		q[keep] = s
		keep++
	}
	c.missq.n = keep
}

// missIdle reports that a scan of missq would find every line still absent
// and its fill outstanding: no L1D MSHR has been released since the last
// scan, and no load has since been queued, or kept, on a present line or
// without an MSHR. Only a fill brings a line in, and it frees an MSHR.
func (c *Core) missIdle() bool { return !c.missDirty && c.missFrees == c.l1d.Frees() }

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
	for i := 0; i < c.ready.n && issued < c.Cfg.IssueWidth; i++ {
		e := c.at(c.ready.s[i])
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
				c.ready.removeAt(i)
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
		}
		issued++
		c.ready.removeAt(i)
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
	c.execute(e, now+1)
	if e.addr&uint64(e.memBytes-1) != 0 { // sizes are powers of two
		e.fault = faultMisaligned
	}
	if e.addr < 0x1000 {
		e.fault = faultNullStore
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
	if c.parked.n == 0 {
		return
	}
	next := ^uint64(0)
	for _, s := range c.storeq.live() {
		if o := c.at(s); !o.addrReady {
			next = o.seq
			break
		}
	}
	p, n := c.parked.live(), 0
	for ; n < len(p) && c.at(p[n]).seq < next; n++ {
		c.insertByAge(&c.ready, p[n])
	}
	c.parked.n = copy(p, p[n:])
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
		e.fault = faultBadLoad
		c.broadcast(e)
		return true, false
	}
	for _, s := range c.storeq.live() {
		o := c.at(s)
		if o.seq >= e.seq {
			break
		}
		if !o.addrReady {
			c.insertByAge(&c.parked, e.self)
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
		c.insertByAge(&c.missq, e.self)
		e.doneAt = ^uint64(0)
		if c.l1d.Present(addr) || !c.l1d.StartMiss(now, addr, mem.GetS, false) {
			c.missDirty = true
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
	c.insertByAge(&c.missq, e.self)
	e.doneAt = ^uint64(0) // not done until the fill arrives (performLoad)
	if !c.l1d.StartMiss(now, addr, mem.GetS, false) {
		c.missDirty = true
	}
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
	for i := range c.sb.n {
		h := c.sb.at(i)
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
	for _, s := range c.storeq.live() {
		o := c.at(s)
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
		f, covered, conflict := coverCheck(o.addr, uint64(o.memBytes), o.src[1].val, addr, size)
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
	if c.sb.n != 0 {
		return false
	}
	for i := range c.win.n {
		o := c.win.at(i)
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
		e.fault = faultBadSC
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

// firstRUU is the window ring's first size. A core parked on a barrier
// holds a few entries at most, and the 64-core machines park nearly all of
// theirs, so the full ring is allocated only by a core that fills this one.
const firstRUU = 16

// growWindow replaces the full window ring with one of RUUSize entries. The
// entries move to indices 0..n-1 in age order, so the slots stored in them
// and in the side lists are renamed, and rebuildRename rebuilds the
// producer table and the wake lists as dispatch built them.
func (c *Core) growWindow() {
	old := c.win
	c.win = ring[entry]{buf: make([]entry, c.Cfg.RUUSize), n: old.n}
	rename := func(s *slot) {
		if *s != 0 {
			*s = slot((int(*s)-1-old.head+len(old.buf))%len(old.buf) + 1)
		}
	}
	for k := range old.n {
		e := c.win.at(k)
		*e = *old.at(k)
		rename(&e.self)
		rename(&e.src[0].dep)
		rename(&e.src[1].dep)
	}
	for _, q := range [...]*slots{&c.ready, &c.flight, &c.missq, &c.storeq, &c.parked} {
		for i := range q.n {
			rename(&q.s[i])
		}
	}
	c.rebuildRename()
}

func (c *Core) dispatchStage() {
	for n := 0; n < c.Cfg.DecodeWidth; n++ {
		if c.fetchBuf.n == 0 || c.win.n >= c.Cfg.RUUSize || c.fenceBlock {
			return
		}
		f := c.fetchBuf.at(0)
		d := f.d
		if d.Mem && c.memOps >= c.Cfg.LSQSize {
			return
		}
		if c.win.n == len(c.win.buf) {
			c.growWindow()
		}
		c.nextSeq++
		// The ring's tail, written field by field: a composite literal
		// would be built aside and copied.
		e := c.win.at(c.win.n)
		*e = entry{}
		e.self = slot(c.win.idx(c.win.n) + 1)
		c.win.n++
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
			c.producer[e.dest] = e.self
		}
		if d.Mem {
			c.memOps++
			if !e.isLoad() {
				c.storeq.push(e.self)
			}
		}
		if d.Ser {
			c.fenceBlock = true
		}
		if d.In.Op == isa.BAD {
			e.issued = true
			e.done = true
			e.fault = faultBad
		}
		if d.In.Op == isa.NOP {
			e.issued = true
			e.done = true
		}
		if e.operandsReady() && !e.issued && !e.isSer {
			c.ready.push(e.self) // youngest in the window
		}
		c.fetchBuf.pop()
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

func (c *Core) captureSrc(e *entry, k, reg int) {
	if reg < 0 || reg == 0 { // no source or x0
		e.src[k] = source{val: 0, ready: true}
		return
	}
	if s := c.producer[reg]; s != 0 {
		if p := c.at(s); p.done {
			e.src[k] = source{val: p.result, ready: true}
		} else {
			c.awaitResult(e, k, p)
		}
		return
	}
	e.src[k] = source{val: c.regs[reg], ready: true}
}

// --- fetch ---------------------------------------------------------------

func (c *Core) fetchStage(now uint64) {
	if now < c.fetchHoldUntil || c.fetchStopped {
		return
	}
	lineMask := uint64(c.sys.Cfg.LineBytes - 1)
	lineOK := uint64(1) // no line verified yet (1 is never line-aligned)
	for n := 0; n < c.Cfg.FetchWidth; n++ {
		if c.fetchBuf.n >= 4*c.Cfg.FetchWidth {
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
		c.fetchBuf.push(f)
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
