package barrier

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/isa"
)

// This file adds the two classic software barriers the paper's §4 cites by
// reference: its centralized sense-reversal barrier "has been reported to
// be faster than or as fast as ticket and array-based locks" (Culler, Singh
// & Gupta). Both are implemented here so the claim can be checked on this
// simulator (see TestCullerClaim and cmd/bench -exp extras). They are kept
// out of barrier.Kinds so the paper's figures remain exactly the paper's
// seven mechanisms; ExtraKinds lists them.
const (
	// KindSWTicket is a centralized barrier whose counter update is
	// protected by a ticket lock (FIFO spin lock).
	KindSWTicket Kind = iota + 100
	// KindSWArray is an array-based (flag) barrier: each thread sets a
	// flag on its own cache line; thread 0 gathers and releases.
	KindSWArray
	// KindHWTree is a T3E-style virtual barrier tree (§2 related work):
	// BSU nodes in a quad reduction tree over the regular interconnect,
	// each hop costing a few cycles, instead of the flat wired network.
	KindHWTree
)

// ExtraKinds lists the additional mechanisms beyond the paper's seven.
var ExtraKinds = []Kind{KindSWTicket, KindSWArray, KindHWTree}

// swTicket is a centralized sense-reversal barrier whose counter section is
// guarded by a ticket lock: threads take FIFO tickets with one LL/SC
// fetch-and-increment, spin until served, update the count with plain
// loads/stores, and pass the lock on.
//
// Layout (one line each): next-ticket, now-serving, count, release flag.
type swTicket struct {
	nthreads int
	base     uint64
	lineB    int
}

func newSWTicket(nthreads int, alloc *Allocator) *swTicket {
	return &swTicket{
		nthreads: nthreads,
		base:     alloc.AllocLines(4),
		lineB:    alloc.Config().LineBytes,
	}
}

func (s *swTicket) Kind() Kind { return KindSWTicket }

func (s *swTicket) Describe() string {
	return fmt.Sprintf("ticket-lock centralized barrier (%d threads, state at %#x)", s.nthreads, s.base)
}

func (s *swTicket) EmitSetup(b *asm.Builder) {
	emitLI(b, RegB1, s.base) // next-ticket; serving at +L, count at +2L, flag at +3L
	b.LI(RegSense, 0)
}

func (s *swTicket) EmitBarrier(b *asm.Builder) {
	L := int32(s.lineB)
	retry := b.NewLabel("tkretry")
	serve := b.NewLabel("tkserve")
	notLast := b.NewLabel("tknl")
	spin := b.NewLabel("tkspin")
	done := b.NewLabel("tkdone")

	b.FENCE()
	b.XORI(RegSense, RegSense, 1)
	// my ticket = fetch&inc(next)
	b.Label(retry)
	b.LL(RegT6, RegB1, 0)
	b.ADDI(RegT7, RegT6, 1)
	b.SC(RegT7, RegT7, RegB1, 0)
	b.BEQZ(RegT7, retry)
	// spin until serving == my ticket
	b.Label(serve)
	b.LD(RegT7, RegB1, L)
	b.BNE(RegT7, RegT6, serve)
	// critical section: count++
	b.LD(RegT7, RegB1, 2*L)
	b.ADDI(RegT7, RegT7, 1)
	b.ST(RegT7, RegB1, 2*L)
	b.LI(RegT8, int64(s.nthreads))
	b.BNE(RegT7, RegT8, notLast)
	// last arriver: reset count, open the barrier
	b.ST(isa.RegZero, RegB1, 2*L)
	b.ST(RegSense, RegB1, 3*L)
	b.Label(notLast)
	// pass the lock: serving = my ticket + 1
	b.ADDI(RegT7, RegT6, 1)
	b.ST(RegT7, RegB1, L)
	// wait for release (the last arriver sails straight through)
	b.Label(spin)
	b.LD(RegT7, RegB1, 3*L)
	b.BNE(RegT7, RegSense, spin)
	b.J(done)
	b.Label(done)
	b.FENCE()
}

func (s *swTicket) EmitAux(b *asm.Builder)                        {}
func (s *swTicket) Install(m *core.Machine, p *asm.Program) error { return nil }

// swArray is the array-based barrier: per-thread arrival flags on private
// lines, gathered by thread 0, released through a single flag. No atomic
// operations at all; the cost is thread 0's O(n) gather and the O(n)
// arrival-line transfers.
type swArray struct {
	nthreads int
	base     uint64 // n arrival lines, then the release line
	lineB    int
}

func newSWArray(nthreads int, alloc *Allocator) *swArray {
	return &swArray{
		nthreads: nthreads,
		base:     alloc.AllocLines(nthreads + 1),
		lineB:    alloc.Config().LineBytes,
	}
}

func (s *swArray) Kind() Kind { return KindSWArray }

func (s *swArray) Describe() string {
	return fmt.Sprintf("array-based flag barrier (%d threads, flags at %#x)", s.nthreads, s.base)
}

func (s *swArray) EmitSetup(b *asm.Builder) {
	emitLI(b, RegB1, s.base) // flag array base
	b.SLLI(RegT6, isa.RegA0, 6)
	b.ADD(RegB2, RegB1, RegT6) // own arrival line
	emitLI(b, RegB3, s.base+uint64(s.nthreads*s.lineB))
	b.LI(RegSense, 0)
}

func (s *swArray) EmitBarrier(b *asm.Builder) {
	gather := b.NewLabel("argather")
	scan := b.NewLabel("arscan")
	spin := b.NewLabel("arspin")
	done := b.NewLabel("ardone")

	b.FENCE()
	b.XORI(RegSense, RegSense, 1)
	b.ST(RegSense, RegB2, 0)
	b.BNEZ(isa.RegA0, spin)
	// Thread 0: wait until every arrival flag equals sense.
	b.Label(gather)
	b.MV(RegT6, RegB1)
	b.LI(RegT7, int64(s.nthreads))
	b.Label(scan)
	b.LD(RegT8, RegT6, 0)
	b.BNE(RegT8, RegSense, gather)
	b.ADDI(RegT6, RegT6, 64)
	b.ADDI(RegT7, RegT7, -1)
	b.BNEZ(RegT7, scan)
	b.ST(RegSense, RegB3, 0)
	b.J(done)
	// Others: spin on the release flag.
	b.Label(spin)
	b.LD(RegT6, RegB3, 0)
	b.BNE(RegT6, RegSense, spin)
	b.Label(done)
	b.FENCE()
}

func (s *swArray) EmitAux(b *asm.Builder)                        {}
func (s *swArray) Install(m *core.Machine, p *asm.Program) error { return nil }
