// Package hwnet models the barrier network, one wired-AND device for the
// paper's aggressive dedicated-network baseline (§4, after Beckmann &
// Polychronopoulos: a global AND over per-core arrival bits reached through
// dedicated wires, two cycles to and from the global logic) and for the
// T3E-style virtual barrier tree, whose one-way latency is its reduction
// tree's depth times a per-hop cost. Each barrier is registered with its
// one-way latency. The core stalls immediately after executing the HWBAR
// instruction, and restarting costs only checking and resetting a local
// status register (modelled in the core). Like a barrier filter, the device
// reports every counted arrival and the opening to its probe.
package hwnet

import (
	"fmt"
	"math"

	"repro/internal/mem"
)

// Net is the barrier-network device shared by all cores.
type Net struct {
	barriers map[int]*barrier
	probe    mem.Probe

	// pending holds every release driven down the wires and not yet
	// consumed, at most one per core and barrier (a newer one replaces
	// it): the one home of a release. wake is the earliest cycle of a
	// record Due has not reported (MaxUint64: none).
	pending []release
	wake    uint64

	// Arrivals counts HWBAR signals; Releases counts barrier openings.
	Arrivals, Releases uint64
}

// release is core's release from barrier id, visible from cycle at; due
// marks a record Due has reported.
type release struct {
	at       uint64
	core, id int
	due      bool
}

type barrier struct {
	nthreads int
	arrived  []int  // cores whose signals have been counted
	latest   uint64 // device-time of the latest counted arrival

	// lat is the one-way latency to and from the global logic, charged on
	// the way up and again on the way down.
	lat uint64
}

// New returns a device with no barrier registered.
func New() *Net {
	return &Net{barriers: make(map[int]*barrier), wake: math.MaxUint64}
}

// Register configures barrier id for nthreads participants whose signals
// take lat cycles to reach the global logic and lat more to come back.
func (n *Net) Register(id, nthreads int, lat uint64) {
	if nthreads <= 0 {
		panic(fmt.Sprintf("hwnet: barrier %d with %d threads", id, nthreads))
	}
	if _, ok := n.barriers[id]; ok {
		// Two generators sharing an id would count each other's arrivals.
		panic(fmt.Sprintf("hwnet: barrier %d registered twice", id))
	}
	n.barriers[id] = &barrier{nthreads: nthreads, lat: lat}
}

// SetProbe attaches p to the device's arrivals and openings (nil detaches).
func (n *Net) SetProbe(p mem.Probe) { n.probe = p }

func (n *Net) get(id int) *barrier {
	b, ok := n.barriers[id]
	if !ok {
		panic(fmt.Sprintf("hwnet: barrier %d not registered", id))
	}
	return b
}

// Arrive records core's arrival at barrier id, signalled at cycle now. The
// signal reaches the global logic after the barrier's latency. When the last
// participant's signal lands, the release is driven back down the wires to
// every arrived core. The probe sees the arrival and then, from the last
// one, the opening, both at cycle now, in a barrier filter's order.
func (n *Net) Arrive(now uint64, core, id int) {
	b := n.get(id)
	n.Arrivals++
	n.emit(mem.EvBarrierArrive, now, core, id, b.nthreads)
	b.latest = max(b.latest, now+b.lat)
	b.arrived = append(b.arrived, core)
	if len(b.arrived) == b.nthreads {
		n.Releases++
		at := b.latest + b.lat
		for _, c := range b.arrived {
			r := release{at: at, core: c, id: id}
			if i := n.find(c, id); i >= 0 {
				n.pending[i] = r
			} else {
				n.pending = append(n.pending, r)
			}
		}
		n.wake = min(n.wake, at)
		b.arrived = b.arrived[:0]
		b.latest = 0
		n.emit(mem.EvBarrierOpen, now, -1, id, b.nthreads)
	}
}

func (n *Net) emit(kind mem.EventKind, now uint64, core, id, nthreads int) {
	if n.probe != nil {
		n.probe.OnEvent(mem.Event{Kind: kind, Now: now, Core: core, Key: uint64(id), N: nthreads})
	}
}

// find returns the index of core's pending release from barrier id, or -1.
func (n *Net) find(core, id int) int {
	for i := range n.pending {
		if r := &n.pending[i]; r.core == core && r.id == id {
			return i
		}
	}
	return -1
}

// TryRelease reports whether the release signal for core has arrived by
// cycle now, consuming it if so.
func (n *Net) TryRelease(now uint64, core, id int) bool {
	n.get(id)
	i := n.find(core, id)
	if i < 0 || now < n.pending[i].at {
		return false
	}
	last := len(n.pending) - 1
	n.pending[i] = n.pending[last]
	n.pending = n.pending[:last]
	return true
}

// Parked reports whether core, arrived at barrier id, may stop calling
// TryRelease until Due reports its release: the release is not visible at
// cycle now, and one still to be driven becomes visible after the cycle of
// the arrival that drives it (a barrier with zero latency releases at that
// very cycle, so its waiters keep polling).
func (n *Net) Parked(now uint64, core, id int) bool {
	b := n.get(id)
	if i := n.find(core, id); i >= 0 {
		return now < n.pending[i].at
	}
	return b.lat > 0
}

// NextRelease returns the earliest cycle at which a release Due has not yet
// reported becomes visible (math.MaxUint64: none). It is one field read, so
// a caller can test it every cycle.
func (n *Net) NextRelease() uint64 { return n.wake }

// Due calls fn with the core of every release visible at cycle now that no
// earlier call reported, then moves NextRelease on to the next one. fn must
// not call TryRelease.
func (n *Net) Due(now uint64, fn func(core int)) {
	n.wake = math.MaxUint64
	for i := range n.pending {
		switch r := &n.pending[i]; {
		case r.due:
		case r.at <= now:
			r.due = true
			fn(r.core)
		default:
			n.wake = min(n.wake, r.at)
		}
	}
}
