package barrier

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/core"
)

// hwNet emits a barrier-network barrier: a single HWBAR instruction. The
// core stalls right after signalling the global logic and restarts by
// checking/resetting a local status register (modelled in cpu.Core). Both
// kinds install on the one device, hwnet.Net, and differ only in its
// one-way latency: KindHWNet is the dedicated flat wires of §4's aggressive
// baseline, KindHWTree the T3E-style virtual barrier tree, a quad reduction
// tree whose levels each cost treeHopLat.
type hwNet struct {
	kind     Kind
	nthreads int
	id       int
}

// Per-hop cost of a barrier packet traversing one tree level of the
// interconnect (request + routing priority, per the T3E description).
const treeHopLat = 3

func newHWNet(kind Kind, nthreads int, alloc *Allocator) *hwNet {
	return &hwNet{kind: kind, nthreads: nthreads, id: alloc.netID()}
}

func (h *hwNet) Kind() Kind { return h.kind }

func (h *hwNet) Describe() string {
	if h.kind == KindHWTree {
		return fmt.Sprintf("T3E-style virtual barrier tree (id %d, %d threads, quad tree, %d cycles/hop)",
			h.id, h.nthreads, treeHopLat)
	}
	return fmt.Sprintf("dedicated barrier network (id %d, %d threads)", h.id, h.nthreads)
}

func (h *hwNet) EmitSetup(b *asm.Builder)   {}
func (h *hwNet) EmitBarrier(b *asm.Builder) { b.HWBAR(int32(h.id)) }
func (h *hwNet) EmitAux(b *asm.Builder)     {}

// Install registers the barrier with its one-way latency: the machine's
// wire latency, or a tree's depth times the hop cost (a one-thread tree has
// no level and keeps the wires).
func (h *hwNet) Install(m *core.Machine, p *asm.Program) error {
	lat := uint64(m.Cfg.CPU.HWBarrierWireLat)
	if d := depth(h.nthreads, 4); h.kind == KindHWTree && d > 0 {
		lat = d * treeHopLat
	}
	m.Net.Register(h.id, h.nthreads, lat)
	return nil
}

// depth is the number of levels of a reduction tree with the given fan-in
// over n leaves.
func depth(n, fanIn int) uint64 {
	d := uint64(0)
	for span := 1; span < n; span *= fanIn {
		d++
	}
	return d
}
