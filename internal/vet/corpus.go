package vet

import (
	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/isa"
)

// CorpusEntry is one deliberately broken kernel program: the smallest
// realistic instance of a protocol or dataflow mistake, together with the
// diagnostic Check must raise for it and the label it must be attributed
// to. The corpus doubles as executable documentation of what each
// diagnostic means and as the regression suite that keeps every check
// firing.
type CorpusEntry struct {
	Name    string
	Want    Code   // the diagnostic that must be reported
	WantPos string // label prefix the diagnostic's Pos must carry
	Threads int
	// DynRace marks entries whose bug is a concrete data race when the
	// program is actually executed with Threads SPMD threads: the dynamic
	// happens-before oracle (internal/hbcheck) must catch these too, which
	// the harness differential test asserts.
	DynRace bool
	Build   func() (*asm.Program, error)
}

// Barrier scratch registers, matching the generators' convention (s6/s7
// hold the arrival and exit addresses), plus a second temporary.
const (
	cB1 = 24            // s6: arrival address
	cB2 = 25            // s7: exit address
	cT1 = isa.RegT0 + 1 // t1
	cT2 = isa.RegT0 + 2 // t2
	cT3 = isa.RegT0 + 3 // t3
	cT4 = isa.RegT0 + 4 // t4
)

const cStride = 256 // arrival-slot stride: lineBytes × L2 banks

// dSetup emits the standard D-filter register setup:
// s6 = arrivals + tid·stride, s7 = exits + tid·stride.
func dSetup(b *asm.Builder) {
	b.LI(isa.RegT6, cStride)
	b.MUL(isa.RegT6, isa.RegT6, isa.RegA0)
	b.LI(cB1, core.BarrierRegion)
	b.ADD(cB1, cB1, isa.RegT6)
	b.LI(cB2, core.BarrierRegion+16*cStride)
	b.ADD(cB2, cB2, isa.RegT6)
}

// dBarrier emits the correct D-filter entry/exit arrival sequence.
func dBarrier(b *asm.Builder) {
	b.FENCE()
	b.DCBI(cB1, 0)
	b.LD(isa.RegT6, cB1, 0)
	b.FENCE()
	b.DCBI(cB2, 0)
}

// lockSetup emits cT4 = LockRegion + tid·4096 — the thread's own
// hardware-lock line, matching barrier.EmitLockAddr's convention.
func lockSetup(b *asm.Builder) {
	b.LI(cT4, 4096)
	b.MUL(cT4, cT4, isa.RegA0)
	b.LI(isa.RegT6, core.LockRegion)
	b.ADD(cT4, cT4, isa.RegT6)
}

// Corpus returns the seeded known-bad programs, one per diagnostic.
func Corpus() []CorpusEntry {
	return []CorpusEntry{
		{
			Name: "missing-fence", Want: CodeMissingFence, WantPos: "bar", Threads: 4,
			Build: func() (*asm.Program, error) {
				b := asm.NewBuilder(core.TextBase, core.DataBase)
				dSetup(b)
				// Store into this thread's partition cell, then arrive
				// without draining it.
				b.LI(isa.RegT0, 8)
				b.MUL(isa.RegT0, isa.RegT0, isa.RegA0)
				b.LI(isa.RegT7, core.DataBase)
				b.ADD(isa.RegT0, isa.RegT0, isa.RegT7)
				b.ST(isa.RegT7, isa.RegT0, 0)
				b.Label("bar")
				b.DCBI(cB1, 0) // missing fence: the store may still be pending
				b.LD(isa.RegT6, cB1, 0)
				b.FENCE()
				b.DCBI(cB2, 0)
				b.HALT()
				return b.Build()
			},
		},
		{
			Name: "wrong-slot-invalidate", Want: CodeWrongSlotInval, WantPos: "bar", Threads: 4,
			Build: func() (*asm.Program, error) {
				b := asm.NewBuilder(core.TextBase, core.DataBase)
				dSetup(b)
				b.FENCE()
				b.Label("bar")
				b.DCBI(cB1, 64) // invalidates the next line, not this thread's slot
				b.LD(isa.RegT6, cB1, 0)
				b.FENCE()
				b.DCBI(cB2, 0)
				b.HALT()
				return b.Build()
			},
		},
		{
			Name: "load-before-invalidate", Want: CodeLoadBeforeInval, WantPos: "bar", Threads: 4,
			Build: func() (*asm.Program, error) {
				b := asm.NewBuilder(core.TextBase, core.DataBase)
				dSetup(b)
				b.FENCE()
				b.Label("bar")
				b.LD(isa.RegT6, cB1, 0) // loads the warm line: cannot be starved
				b.DCBI(cB1, 0)
				b.LD(isa.RegT6, cB1, 0)
				b.FENCE()
				b.DCBI(cB2, 0)
				b.HALT()
				return b.Build()
			},
		},
		{
			Name: "store-to-arrival-line", Want: CodeStoreToArrival, WantPos: "poke", Threads: 4,
			Build: func() (*asm.Program, error) {
				b := asm.NewBuilder(core.TextBase, core.DataBase)
				dSetup(b)
				dBarrier(b)
				b.Label("poke")
				b.ST(isa.RegZero, cB1, 0) // writes the filter-watched arrival line
				b.FENCE()
				b.HALT()
				return b.Build()
			},
		},
		{
			Name: "use-before-def", Want: CodeUseBeforeDef, WantPos: "kern", Threads: 1,
			Build: func() (*asm.Program, error) {
				b := asm.NewBuilder(core.TextBase, core.DataBase)
				b.Label("kern")
				b.ADD(cT1, isa.RegT0, isa.RegT0) // t0 never defined
				b.HALT()
				return b.Build()
			},
		},
		{
			Name: "cross-partition-store", Want: CodeCrossPartitionStore, WantPos: "kern", Threads: 4, DynRace: true,
			Build: func() (*asm.Program, error) {
				b := asm.NewBuilder(core.TextBase, core.DataBase)
				b.Label("kern")
				b.LI(isa.RegT0, core.DataBase)
				b.LI(cT1, 123)
				b.ST(cT1, isa.RegT0, 0) // every thread writes the same word
				b.HALT()
				return b.Build()
			},
		},
		{
			Name: "missing-iflush", Want: CodeMissingIFlush, WantPos: "bar", Threads: 2,
			Build: func() (*asm.Program, error) {
				b := asm.NewBuilder(core.TextBase, core.DataBase)
				// I-filter setup: s6 = stubs + tid·stride.
				b.LI(isa.RegT6, cStride)
				b.MUL(isa.RegT6, isa.RegT6, isa.RegA0)
				b.LA(cB1, "stubs")
				b.ADD(cB1, cB1, isa.RegT6)
				b.FENCE()
				b.Label("bar")
				b.ICBI(cB1, 0)
				b.JALR(isa.RegRA, cB1, 0) // no iflush before the stall jump
				b.HALT()
				b.AlignText(cStride)
				b.Label("stubs")
				for t := 0; t < 2; t++ {
					start := b.PC()
					b.RET()
					for b.PC() < start+cStride {
						b.NOP()
					}
				}
				return b.Build()
			},
		},
		{
			// The partition index k runs to a bound loaded from memory;
			// the loop-head interval widens away, but the loop's first
			// iteration (the preheader edge) is exact: every thread's
			// store provably starts at the same word.
			Name: "dd-bound-store-race", Want: CodeCrossPartitionStore, WantPos: "loop", Threads: 4, DynRace: true,
			Build: func() (*asm.Program, error) {
				b := asm.NewBuilder(core.TextBase, core.DataBase)
				b.Label("kern")
				b.LI(isa.RegT0, core.DataBase+0x800)
				b.LD(cT1, isa.RegT0, 0) // n: data-dependent iteration bound
				b.LI(cT2, 0)            // k = 0
				b.LI(cT3, core.DataBase)
				b.Label("loop")
				b.ST(cT2, cT3, 0) // out[k]: no tid skew — all threads share it
				b.ADDI(cT3, cT3, 8)
				b.ADDI(cT2, cT2, 1)
				b.BLT(cT2, cT1, "loop")
				b.HALT()
				return b.Build()
			},
		},
		{
			// Stride-64 per-tid partitions, but the in-partition offset is
			// a data-dependent value masked to [0,120]: the footprint spans
			// 128 bytes, so adjacent threads' partitions can overlap. The
			// per-tid index cells make the overlap concrete at runtime.
			Name: "skewed-partition-overlap", Want: CodeDynPartitionOverlap, WantPos: "kern", Threads: 4, DynRace: true,
			Build: func() (*asm.Program, error) {
				b := asm.NewBuilder(core.TextBase, core.DataBase)
				b.DataLabel("idx")
				b.Quad(64) // thread 0's offset reaches into thread 1's cell
				b.Quad(0)
				b.Quad(0)
				b.Quad(0)
				b.Label("kern")
				b.LA(isa.RegT0, "idx")
				b.SLLI(cT1, isa.RegA0, 3)
				b.ADD(isa.RegT0, isa.RegT0, cT1)
				b.LD(cT2, isa.RegT0, 0) // per-thread dynamic offset
				b.ANDI(cT2, cT2, 120)
				b.LI(cT3, 64)
				b.MUL(cT3, cT3, isa.RegA0)
				b.LI(cT4, core.DataBase+0x1000)
				b.ADD(cT3, cT3, cT4)
				b.ADD(cT3, cT3, cT2) // base + 64·tid + [0,120]
				b.ST(cT2, cT3, 0)
				b.HALT()
				return b.Build()
			},
		},
		{
			// Two exact tid-strided stores separated by a FENCE but no
			// barrier: a fence drains this thread's stores, it does not
			// order other threads, so the pair still races at tid = v+1.
			// (The v1 checker grouped stores by fence interval and missed
			// exactly this shape; phases only split at barriers.)
			Name: "phase-straddling-store", Want: CodeCrossPartitionStore, WantPos: "kern", Threads: 4, DynRace: true,
			Build: func() (*asm.Program, error) {
				b := asm.NewBuilder(core.TextBase, core.DataBase)
				b.Label("kern")
				b.SLLI(isa.RegT0, isa.RegA0, 3)
				b.LI(cT1, core.DataBase)
				b.ADD(isa.RegT0, isa.RegT0, cT1)
				b.ST(isa.RegA0, isa.RegT0, 0) // own cell: fine
				b.FENCE()
				b.ST(isa.RegA0, isa.RegT0, 8) // neighbour's cell: races
				b.HALT()
				return b.Build()
			},
		},
		{
			// The partition base itself is data-dependent: a masked load
			// picks the slot, with no tid term at all, so every thread can
			// land on every slot in [0x100, 0x138].
			Name: "dd-partition-base", Want: CodeDynPartitionOverlap, WantPos: "kern", Threads: 4, DynRace: true,
			Build: func() (*asm.Program, error) {
				b := asm.NewBuilder(core.TextBase, core.DataBase)
				b.DataLabel("q")
				b.Quad(0)
				b.Label("kern")
				b.LA(isa.RegT0, "q")
				b.LD(cT1, isa.RegT0, 0)
				b.ANDI(cT1, cT1, 56) // slot offset in [0,56]
				b.LI(cT2, core.DataBase+0x100)
				b.ADD(cT2, cT2, cT1)
				b.ST(isa.RegA0, cT2, 0)
				b.HALT()
				return b.Build()
			},
		},
		{
			// A thread reads its right neighbour's cell while that
			// neighbour writes it, with no barrier between: an exact
			// store/load race the v1 checker (stores only) never looked at.
			Name: "neighbour-read-race", Want: CodeStoreLoadRace, WantPos: "kern", Threads: 4, DynRace: true,
			Build: func() (*asm.Program, error) {
				b := asm.NewBuilder(core.TextBase, core.DataBase)
				b.Label("kern")
				b.SLLI(isa.RegT0, isa.RegA0, 3)
				b.LI(cT1, core.DataBase)
				b.ADD(isa.RegT0, isa.RegT0, cT1)
				b.ST(isa.RegA0, isa.RegT0, 0) // own cell
				b.LD(cT2, isa.RegT0, 8)       // neighbour's cell, unsynchronized
				b.HALT()
				return b.Build()
			},
		},
		{
			// Skewed dynamic partitions: stride 64, but each thread writes
			// (len&63)+96 bytes — a bounded data-dependent span that always
			// exceeds the stride, so neighbours overlap. The loop bound
			// narrows back through the BLT after the head widens.
			Name: "skewed-dd-mix", Want: CodeDynPartitionOverlap, WantPos: "loop", Threads: 4, DynRace: true,
			Build: func() (*asm.Program, error) {
				b := asm.NewBuilder(core.TextBase, core.DataBase)
				b.DataLabel("len")
				b.Quad(0)
				b.Label("kern")
				b.LA(isa.RegT0, "len")
				b.LD(cT1, isa.RegT0, 0)
				b.ANDI(cT1, cT1, 63)
				b.ADDI(cT1, cT1, 96) // span in [96,159] > stride 64
				b.LI(cT2, 64)
				b.MUL(cT2, cT2, isa.RegA0)
				b.LI(cT3, core.DataBase+0x200)
				b.ADD(cT2, cT2, cT3) // partition base
				b.ADD(cT3, cT2, cT1) // partition end
				b.Label("loop")
				b.ST(isa.RegA0, cT2, 0)
				b.ADDI(cT2, cT2, 8)
				b.BLT(cT2, cT3, "loop")
				b.HALT()
				return b.Build()
			},
		},
		{
			// A warm read of the thread's lock line before the acquire's
			// dcbi: the load cannot be starved, and the bank's lock table
			// faults demand loads from threads that never queued.
			Name: "lock-load-before-acquire", Want: CodeLoadBeforeAcquire, WantPos: "crit", Threads: 4,
			Build: func() (*asm.Program, error) {
				b := asm.NewBuilder(core.TextBase, core.DataBase)
				lockSetup(b)
				b.FENCE()
				b.Label("crit")
				b.LD(isa.RegT6, cT4, 0) // touches the lock line unqueued
				// The proper acquire/release that should have come first.
				b.FENCE()
				b.DCBI(cT4, 0)
				b.LD(isa.RegT6, cT4, 0)
				b.FENCE()
				b.DCBI(cT4, 0)
				b.HALT()
				return b.Build()
			},
		},
		{
			// A correct acquire whose critical section never releases:
			// waiters parked at the bank stay parked forever.
			Name: "lock-missing-release", Want: CodeMissingRelease, WantPos: "crit", Threads: 4,
			Build: func() (*asm.Program, error) {
				b := asm.NewBuilder(core.TextBase, core.DataBase)
				lockSetup(b)
				b.FENCE()
				b.DCBI(cT4, 0)
				b.LD(isa.RegT6, cT4, 0)
				b.FENCE()
				b.Label("crit")
				b.HALT() // still holding
				return b.Build()
			},
		},
		{
			Name: "dead-code", Want: CodeDeadCode, WantPos: "dead", Threads: 1,
			Build: func() (*asm.Program, error) {
				b := asm.NewBuilder(core.TextBase, core.DataBase)
				b.Label("kern")
				b.LI(isa.RegT0, 1)
				b.HALT()
				b.Label("dead")
				b.ADDI(isa.RegT0, isa.RegT0, 1) // nothing jumps here
				b.HALT()
				return b.Build()
			},
		},
	}
}
