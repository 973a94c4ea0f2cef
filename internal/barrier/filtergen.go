package barrier

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/filter"
	"repro/internal/isa"
)

// filterBarrier implements the four barrier-filter mechanisms: the arrival
// line is fetched through the instruction cache (§3.4.1) or the data cache
// (§3.4.2), and the exit is signalled by its own invalidation (entry/exit)
// or by the next invocation's arrival at a twin barrier (ping-pong, §3.5).
//
// Through the I-cache each thread's arrival address is a line of code (a
// stub); executing the barrier invalidates the stub line and jumps to it,
// so the core's instruction fetch stalls until the filter services the
// fill:
//
//	fence                 ; prior work globally visible, pipeline flushed
//	icbi   0(arrival)     ; signal arrival, purge the stub line
//	iflush                ; discard fetched/prefetched instructions
//	jalr   ra, arrival    ; execution stalls fetching the stub
//	  stub: dcbi exit(zero); ret      (exit signal baked per thread)
//
// Through the D-cache it is a data line the thread loads:
//
//	fence                      ; prior memory ops complete first
//	dcbi  0(arrival)           ; signal arrival, purge local copies
//	ld    t6, 0(arrival)       ; starved until the barrier opens
//	fence                      ; no later memory op may pass the load
//	dcbi  0(exit)              ; signal "past the barrier"
//
// In the ping-pong variants (one invalidation per invocation) two barriers
// are registered with the arrival region of each as the exit region of the
// other; the code toggles which arrival address it uses, the I-cache stub
// is a bare ret, and the D-cache sequence drops its exit dcbi.
type filterBarrier struct {
	kind     Kind
	icache   bool
	pingPong bool
	nthreads int
	stride   uint64
	bank     int

	// Region 0 holds the arrival lines; region 1 the exit lines
	// (entry/exit) or the twin barrier's arrival lines (ping-pong). A
	// region of I-cache stubs is text: it is addressed by label and its
	// base resolves at Install; a data region is allocated at construction.
	stubLabel [2]string
	base      [2]uint64
	installed []*filter.Filter
}

func newFilterBarrier(kind Kind, nthreads int, alloc *Allocator, bank int) *filterBarrier {
	f := &filterBarrier{
		kind:     kind,
		icache:   kind == KindFilterI || kind == KindFilterIPP,
		pingPong: kind == KindFilterIPP || kind == KindFilterDPP,
		nthreads: nthreads,
		stride:   alloc.Stride(),
		bank:     bank,
	}
	if f.icache {
		id := alloc.stubID()
		for r := range f.stubLabel {
			f.stubLabel[r] = fmt.Sprintf(".ibar%d_stubs%d", id, r)
		}
	} else {
		f.base[0] = alloc.AllocRegion(nthreads, bank)
	}
	if !f.stubs(1) {
		f.base[1] = alloc.AllocRegion(nthreads, bank)
	}
	return f
}

// stubs reports whether region r is a region of I-cache stubs.
func (f *filterBarrier) stubs(r int) bool { return f.icache && (r == 0 || f.pingPong) }

func (f *filterBarrier) Kind() Kind { return f.kind }

func (f *filterBarrier) Describe() string {
	cache, mode, where := "D", "entry/exit", ""
	if f.pingPong {
		mode = "ping-pong"
	}
	if f.icache {
		cache = "I" // its arrival lines are placed by the assembler
	} else {
		where = fmt.Sprintf("arrivals %#x, exits %#x, ", f.base[0], f.base[1])
	}
	return fmt.Sprintf("%s-cache barrier filter, %s (%sstride %#x, bank %d, %d threads)",
		cache, mode, where, f.stride, f.bank, f.nthreads)
}

func (f *filterBarrier) EmitSetup(b *asm.Builder) {
	// RegB1 = region 0 + tid*stride (current arrival); RegB2 likewise
	// over region 1.
	emitLI(b, RegT6, f.stride)
	b.MUL(RegT6, RegT6, isa.RegA0)
	for r, rd := range [2]uint8{RegB1, RegB2} {
		if f.stubs(r) {
			b.LA(rd, f.stubLabel[r])
		} else {
			emitLI(b, rd, f.base[r])
		}
		b.ADD(rd, rd, RegT6)
	}
}

func (f *filterBarrier) EmitBarrier(b *asm.Builder) {
	b.FENCE()
	// The swap temporary differs by cache (the D sequence's t6 holds the
	// loaded word); the emitted streams are pinned by the generator golden.
	swap := uint8(RegT7)
	if f.icache {
		b.ICBI(RegB1, 0)
		b.IFLUSH()
		b.JALR(isa.RegRA, RegB1, 0)
		swap = RegT6
	} else {
		b.DCBI(RegB1, 0)
		b.LD(RegT6, RegB1, 0)
		b.FENCE()
	}
	switch {
	case f.pingPong:
		// Toggle to the twin barrier: swap arrival addresses.
		b.MV(swap, RegB1)
		b.MV(RegB1, RegB2)
		b.MV(RegB2, swap)
	case !f.icache:
		b.DCBI(RegB2, 0)
		// Through the I-cache the stub itself performs the exit
		// invalidation before returning.
	}
}

// emitStubRegion lays out nthreads one-line stubs with the bank-preserving
// stride, starting at a line in this generator's bank.
func (f *filterBarrier) emitStubRegion(b *asm.Builder, label string, withExit bool) {
	b.AlignText(int(f.stride))
	// Offset into the right bank.
	for i := 0; i < f.bank*64/isa.WordBytes; i++ {
		b.NOP()
	}
	b.Label(label)
	for t := 0; t < f.nthreads; t++ {
		start := b.PC()
		if withExit {
			exit := f.base[1] + uint64(t)*f.stride
			if exit > 0x7fffffff {
				panic("barrier: exit address does not fit DCBI immediate")
			}
			b.DCBI(isa.RegZero, int32(exit))
		}
		b.RET()
		// Pad to the next stub (stride bytes after this one's start).
		for b.PC() < start+f.stride {
			b.NOP()
		}
	}
}

func (f *filterBarrier) EmitAux(b *asm.Builder) {
	for r := range f.stubLabel {
		if f.stubs(r) {
			f.emitStubRegion(b, f.stubLabel[r], !f.pingPong)
		}
	}
}

func (f *filterBarrier) Install(m *core.Machine, p *asm.Program) error {
	name := "d"
	if f.icache {
		name = "i"
	}
	for r := range f.base {
		if f.stubs(r) {
			f.base[r] = p.MustSymbol(f.stubLabel[r])
		}
	}
	names := []string{name}
	if f.pingPong {
		names = []string{name + "pp0", name + "pp1"}
	}
	var fs []*filter.Filter
	for i, n := range names {
		// Filter i's arrival lines are region i; its exit lines the other
		// region (which for ping-pong is the twin's arrival region).
		fl := filter.New(n, f.base[i], f.base[1-i], f.stride, f.nthreads)
		fl.RegisterAll()
		if i == 1 {
			fl.InitServicing() // first invocation's arrivals are legal exits for the twin
		}
		if err := m.Install(fl); err != nil {
			for _, done := range fs {
				m.Remove(done)
			}
			return err
		}
		fs = append(fs, fl)
	}
	f.installed = fs
	return nil
}

// Filters returns the installed hardware filters (tests, stats).
func (f *filterBarrier) Filters() []*filter.Filter { return f.installed }
