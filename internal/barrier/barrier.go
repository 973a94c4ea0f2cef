// Package barrier provides the seven barrier implementations evaluated in
// the paper as SRISC code generators plus their hardware installation:
//
//	KindSWCentral   centralized sense-reversal software barrier (LL/SC
//	                counter + release flag on separate cache lines)
//	KindSWTree      binary combining tree of such pairwise barriers
//	KindHWNet       dedicated barrier network (Beckmann/Polychronopoulos)
//	KindFilterI     barrier filter through instruction-cache lines
//	KindFilterD     barrier filter through data-cache lines
//	KindFilterIPP   ping-pong (single-invalidation) variant of FilterI
//	KindFilterDPP   ping-pong variant of FilterD
//
// A Generator owns a fixed set of registers (x24..x31; see Regs) that the
// surrounding kernel must not touch, emits a setup sequence that derives
// the thread's barrier addresses from its thread id, and emits the inline
// barrier sequence itself. Install places the required hardware state
// (barrier filters in L2 banks, or a dedicated-network registration) into a
// machine. The package only generates code and installs hardware: what a
// run does when a filter faults (re-arm, then degrade to a software
// barrier) is the chaos harness's policy (internal/harness).
package barrier

import (
	"fmt"
	"slices"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/filter"
)

// Kind identifies a barrier mechanism.
type Kind int

const (
	KindSWCentral Kind = iota
	KindSWTree
	KindHWNet
	KindFilterI
	KindFilterD
	KindFilterIPP
	KindFilterDPP
)

// Kinds lists every mechanism in the order the paper's figures use.
var Kinds = []Kind{
	KindSWCentral, KindSWTree, KindHWNet,
	KindFilterI, KindFilterD, KindFilterIPP, KindFilterDPP,
}

// FilterKinds lists only the barrier-filter mechanisms.
var FilterKinds = []Kind{KindFilterI, KindFilterD, KindFilterIPP, KindFilterDPP}

// SoftwareKinds lists only the software mechanisms.
var SoftwareKinds = []Kind{KindSWCentral, KindSWTree}

func (k Kind) String() string {
	switch k {
	case KindSWCentral:
		return "sw-central"
	case KindSWTree:
		return "sw-tree"
	case KindHWNet:
		return "hw-net"
	case KindFilterI:
		return "filter-i"
	case KindFilterD:
		return "filter-d"
	case KindFilterIPP:
		return "filter-i-pp"
	case KindFilterDPP:
		return "filter-d-pp"
	case KindSWTicket:
		return "sw-ticket"
	case KindSWArray:
		return "sw-array"
	case KindHWTree:
		return "hw-tree"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ParseKind resolves a mechanism name as printed by String, including the
// extra (non-paper) mechanisms.
func ParseKind(s string) (Kind, error) {
	for _, k := range slices.Concat(Kinds, ExtraKinds) {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("barrier: unknown kind %q", s)
}

// Registers reserved for barrier sequences. Kernel code generators must not
// use x24..x31.
const (
	RegB1    = 24 // s6: primary address (arrival address / counter)
	RegB2    = 25 // s7: secondary address (exit address / release flag / twin arrival)
	RegB3    = 26 // s8: reserved for barrier use
	RegSense = 28 // s10: local sense
	RegT8    = 29 // s11: barrier temp
	RegT6    = 30 // t6: barrier temp
	RegT7    = 31 // t7: barrier temp
)

// Generator emits one barrier mechanism and installs its hardware.
type Generator interface {
	Kind() Kind

	// EmitSetup emits per-thread initialisation. It runs once at program
	// start, after the loader has placed tid in a0 and nthreads in a1.
	EmitSetup(b *asm.Builder)

	// EmitBarrier emits one inline barrier invocation.
	EmitBarrier(b *asm.Builder)

	// EmitAux emits any auxiliary text (I-cache arrival stubs). Called
	// once, after the main program body.
	EmitAux(b *asm.Builder)

	// Install places hardware state into the machine (filters, network
	// registrations). Call after the machine is built and the program
	// built and loaded (stub addresses resolve through its symbols).
	Install(m *core.Machine, p *asm.Program) error

	// Describe returns a short human-readable summary.
	Describe() string
}

// New constructs a generator for any mechanism ParseKind names, the paper's
// seven and ExtraKinds, for nthreads threads, using the address allocator
// for any barrier data lines it needs. Filter barriers are placed in the
// allocator's next bank (round-robin).
func New(kind Kind, nthreads int, alloc *Allocator) (Generator, error) {
	return NewAt(kind, nthreads, alloc, alloc.NextBank())
}

// NewAt is New with an explicit L2 bank for filter barriers (the OS model
// uses it to place a barrier in a bank with free filter slots). The bank is
// ignored for non-filter kinds.
func NewAt(kind Kind, nthreads int, alloc *Allocator, bank int) (Generator, error) {
	switch kind {
	case KindSWCentral:
		return newSWCentral(nthreads, alloc), nil
	case KindSWTree:
		return newSWTree(nthreads, alloc)
	case KindHWNet, KindHWTree:
		return newHWNet(kind, nthreads, alloc), nil
	case KindFilterI, KindFilterIPP, KindFilterD, KindFilterDPP:
		return newFilterBarrier(kind, nthreads, alloc, bank), nil
	case KindSWTicket:
		return newSWTicket(nthreads, alloc), nil
	case KindSWArray:
		return newSWArray(nthreads, alloc), nil
	}
	return nil, fmt.Errorf("barrier: unknown kind %d", int(kind))
}

// SlotsNeeded returns how many bank filter slots a mechanism consumes.
func SlotsNeeded(kind Kind) int {
	switch kind {
	case KindFilterI, KindFilterD:
		return 1
	case KindFilterIPP, KindFilterDPP:
		return 2
	}
	return 0
}

// HardwareBarrier is implemented by generators that install barrier
// filters; it exposes them for statistics, swap-out and address queries.
type HardwareBarrier interface {
	Filters() []*filter.Filter
}

// MustNew panics on error (for tests and fixed-configuration harnesses).
func MustNew(kind Kind, nthreads int, alloc *Allocator) Generator {
	g, err := New(kind, nthreads, alloc)
	if err != nil {
		panic(err)
	}
	return g
}

// emitLI loads a 32-bit constant into a register.
func emitLI(b *asm.Builder, rd uint8, v uint64) {
	if v > 0x7fffffff {
		panic(fmt.Sprintf("barrier: address %#x does not fit LI", v))
	}
	b.LI(rd, int64(v))
}
