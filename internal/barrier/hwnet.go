package barrier

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/core"
)

// hwNet emits the dedicated-barrier-network barrier: a single HWBAR
// instruction. The core stalls right after signalling the global logic and
// restarts by checking/resetting a local status register (modelled in
// cpu.Core), exactly the aggressive baseline of §4.
type hwNet struct {
	nthreads int
	id       int
}

func newHWNet(nthreads int, alloc *Allocator) *hwNet {
	return &hwNet{nthreads: nthreads, id: alloc.netID()}
}

func (h *hwNet) Kind() Kind { return KindHWNet }

func (h *hwNet) Describe() string {
	return fmt.Sprintf("dedicated barrier network (id %d, %d threads)", h.id, h.nthreads)
}

func (h *hwNet) EmitSetup(b *asm.Builder)   {}
func (h *hwNet) EmitBarrier(b *asm.Builder) { b.HWBAR(int32(h.id)) }
func (h *hwNet) EmitAux(b *asm.Builder)     {}

func (h *hwNet) Install(m *core.Machine, p *asm.Program) error {
	m.Net.Register(h.id, h.nthreads)
	return nil
}

// hwTree is the T3E-style virtual barrier tree: the same HWBAR instruction,
// but the device models a quad reduction tree with per-hop latency rather
// than dedicated flat wires.
type hwTree struct {
	nthreads int
	id       int
}

// Per-hop cost of a barrier packet traversing one tree level of the
// interconnect (request + routing priority, per the T3E description).
const treeHopLat = 3

func newHWTree(nthreads int, alloc *Allocator) *hwTree {
	return &hwTree{nthreads: nthreads, id: alloc.netID()}
}

func (h *hwTree) Kind() Kind { return KindHWTree }

func (h *hwTree) Describe() string {
	return fmt.Sprintf("T3E-style virtual barrier tree (id %d, %d threads, quad tree, %d cycles/hop)",
		h.id, h.nthreads, treeHopLat)
}

func (h *hwTree) EmitSetup(b *asm.Builder)   {}
func (h *hwTree) EmitBarrier(b *asm.Builder) { b.HWBAR(int32(h.id)) }
func (h *hwTree) EmitAux(b *asm.Builder)     {}

func (h *hwTree) Install(m *core.Machine, p *asm.Program) error {
	m.Net.RegisterTree(h.id, h.nthreads, 4, treeHopLat)
	return nil
}
