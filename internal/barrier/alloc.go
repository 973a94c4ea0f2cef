package barrier

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mem"
)

// Allocator hands out cache-line-granular barrier data addresses from the
// machine's barrier region, implementing the OS allocation rules of §3.3.2:
// every line of one barrier maps to the same L2 bank (fixed stride of
// LineBytes*L2Banks between consecutive threads' lines) and the line index
// bits identify the thread.
//
// It also numbers the barriers built from it: dedicated-network barrier ids
// and I-filter stub labels count from 0 per allocator, so a program's text
// depends only on the generators built for it.
type Allocator struct {
	cfg      mem.Config
	next     uint64
	nextBank int
	nextNet  int
	nextStub int
}

// NewAllocator creates an allocator over the standard barrier region for
// the given memory configuration.
func NewAllocator(cfg mem.Config) *Allocator {
	return &Allocator{cfg: cfg, next: core.BarrierRegion}
}

// Stride returns the line stride between consecutive threads' addresses.
func (a *Allocator) Stride() uint64 {
	return uint64(a.cfg.LineBytes * a.cfg.L2Banks)
}

// AllocRegion reserves n lines with the bank-preserving stride, all mapping
// to the given bank, and returns the base address.
func (a *Allocator) AllocRegion(n int, bank int) uint64 {
	stride := a.Stride()
	base := (a.next + stride - 1) / stride * stride
	base += uint64(bank) * uint64(a.cfg.LineBytes)
	a.next = base + uint64(n)*stride
	if bk := a.cfg.BankOf(base); bk != bank {
		panic(fmt.Sprintf("barrier: allocation at %#x landed in bank %d, want %d", base, bk, bank))
	}
	return base
}

// AllocLines reserves n independent cache lines (no bank constraint), used
// for software barrier state, and returns their base (consecutive lines).
func (a *Allocator) AllocLines(n int) uint64 {
	lb := uint64(a.cfg.LineBytes)
	base := (a.next + lb - 1) / lb * lb
	a.next = base + uint64(n)*lb
	return base
}

// NextBank rotates barrier placements across the L2 banks so concurrent
// barriers spread their filter load.
func (a *Allocator) NextBank() int {
	b := a.nextBank % a.cfg.L2Banks
	a.nextBank++
	return b
}

// netID returns the next dedicated-network (HWBAR) barrier id.
func (a *Allocator) netID() int {
	a.nextNet++
	return a.nextNet - 1
}

// stubID returns the next number for an I-filter's stub labels.
func (a *Allocator) stubID() int {
	a.nextStub++
	return a.nextStub - 1
}

// Config exposes the memory configuration the allocator was built with.
func (a *Allocator) Config() mem.Config { return a.cfg }
