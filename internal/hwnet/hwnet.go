// Package hwnet models the aggressive dedicated-barrier-network baseline the
// paper compares against (based on Beckmann & Polychronopoulos): a global
// AND over per-core arrival bits reached through dedicated wires. Following
// §4 of the paper, the model charges a two-cycle latency to and from the
// global logic; the core stalls immediately after executing the HWBAR
// instruction, and restarting costs only checking and resetting a local
// status register (modelled in the core).
package hwnet

import "fmt"

// Net is the barrier-network device shared by all cores.
type Net struct {
	wireLat  uint64
	barriers map[int]*barrier

	// Arrivals counts HWBAR signals; Releases counts barrier openings.
	Arrivals, Releases uint64
}

type barrier struct {
	nthreads  int
	arrived   []int  // cores whose signals have been counted
	latest    uint64 // device-time of the latest counted arrival
	releaseAt map[int]uint64

	// Tree mode (T3E-style BSU virtual network, §2 of the paper): the
	// barrier is realised as a degree-ary reduction tree over the
	// ordinary interconnect; each hop costs hopLat cycles instead of the
	// flat network's single wire delay, in both the up-sweep and the
	// down-sweep.
	treeDepth int
	hopLat    uint64
}

// New returns a device with the given one-way wire latency.
func New(wireLat int) *Net {
	return &Net{wireLat: uint64(wireLat), barriers: make(map[int]*barrier)}
}

// Register configures barrier id for nthreads participants on the flat
// wired-AND network (the paper's Beckmann/Polychronopoulos baseline).
func (n *Net) Register(id, nthreads int) {
	if nthreads <= 0 {
		panic(fmt.Sprintf("hwnet: barrier %d with %d threads", id, nthreads))
	}
	n.checkFree(id)
	n.barriers[id] = &barrier{nthreads: nthreads, releaseAt: make(map[int]uint64)}
}

// RegisterTree configures barrier id as a T3E-style virtual barrier tree
// (§2 related work: barrier/eureka synchronization units connected via a
// virtual network over the ordinary interconnect, with barrier packets
// given priority routing). The reduction tree has the given fan-in; every
// level traversed costs hopLat cycles on the way up and again on the way
// down, replacing the flat network's wire latency.
func (n *Net) RegisterTree(id, nthreads, degree int, hopLat uint64) {
	if nthreads <= 0 || degree < 2 {
		panic(fmt.Sprintf("hwnet: tree barrier %d with %d threads, degree %d", id, nthreads, degree))
	}
	n.checkFree(id)
	depth := 0
	for span := 1; span < nthreads; span *= degree {
		depth++
	}
	n.barriers[id] = &barrier{
		nthreads:  nthreads,
		releaseAt: make(map[int]uint64),
		treeDepth: depth,
		hopLat:    hopLat,
	}
}

// checkFree rejects a second registration of a live id: two generators
// sharing an id would count each other's arrivals.
func (n *Net) checkFree(id int) {
	if _, ok := n.barriers[id]; ok {
		panic(fmt.Sprintf("hwnet: barrier %d registered twice", id))
	}
}

func (n *Net) get(id int) *barrier {
	b, ok := n.barriers[id]
	if !ok {
		panic(fmt.Sprintf("hwnet: barrier %d not registered", id))
	}
	return b
}

// Arrive records core's arrival at barrier id, signalled at cycle now. The
// signal reaches the global logic after the wire latency. When the last
// participant's signal lands, the release is driven back down the wires to
// every arrived core.
func (n *Net) Arrive(now uint64, core, id int) {
	b := n.get(id)
	n.Arrivals++
	up := n.wireLat
	down := n.wireLat
	if b.treeDepth > 0 {
		up = uint64(b.treeDepth) * b.hopLat
		down = up
	}
	effective := now + up
	if effective > b.latest {
		b.latest = effective
	}
	b.arrived = append(b.arrived, core)
	if len(b.arrived) == b.nthreads {
		n.Releases++
		at := b.latest + down
		for _, c := range b.arrived {
			b.releaseAt[c] = at
		}
		b.arrived = b.arrived[:0]
		b.latest = 0
	}
}

// TryRelease reports whether the release signal for core has arrived by
// cycle now, consuming it if so.
func (n *Net) TryRelease(now uint64, core, id int) bool {
	b := n.get(id)
	at, ok := b.releaseAt[core]
	if !ok || now < at {
		return false
	}
	delete(b.releaseAt, core)
	return true
}
