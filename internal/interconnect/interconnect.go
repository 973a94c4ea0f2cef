// Package interconnect models the on-chip fabric between the cores' L1
// caches and the shared L2 banks. The memory system injects request
// transactions (core -> bank) and response transactions (bank -> core) as
// opaque payloads; the fabric arbitrates, applies per-link occupancy and
// contention, and hands each message to a delivery callback stamped with its
// arrival cycle.
//
// Two implementations share the Fabric interface:
//
//   - Arbiter: source FIFOs contending for resources of a few channels
//     each, granted round-robin. New derives three fabrics from the kind
//     alone: the paper's split-transaction bus (Table 2; one address bus,
//     per-bank data channels or one shared data bus), a full core-to-bank
//     crossbar (PortBW channels per destination port), and a single-cycle
//     WDM optical waveguide (a modulator per source, one-cycle flight).
//   - Mesh: a W x H 2D-mesh NoC with XY (dimension-ordered) routing,
//     per-hop LinkLat latency, and per-link contention.
//
// The fabric contract mirrors the rest of the hierarchy's fast-path rules
// (DESIGN.md section 6): NextEvent must be exact — Tick may act only at
// cycles a prior NextEvent announced — and no counter may depend on which
// idle cycles were ticked: busy cycles are credited at grant time and
// clipped to the reading cycle by StatsInto, so a direction with nothing
// queued returns from Tick at once. Every fabric preserves per-source FIFO
// ordering toward a fixed destination, the same-address ordering the
// barrier sequences rely on (an ICBI/DCBI always reaches the bank before
// the fill the same core issues afterwards).
package interconnect

import (
	"fmt"

	"repro/internal/sim"
)

// Kind selects a fabric implementation.
type Kind int

const (
	KindBus Kind = iota
	KindCrossbar
	KindMesh
	KindOptical
)

// Kinds lists every fabric, in presentation order.
var Kinds = []Kind{KindBus, KindCrossbar, KindMesh, KindOptical}

func (k Kind) String() string {
	switch k {
	case KindBus:
		return "bus"
	case KindCrossbar:
		return "xbar"
	case KindMesh:
		return "mesh"
	case KindOptical:
		return "optical"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ParseKind maps a command-line name to a fabric kind.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "bus":
		return KindBus, nil
	case "xbar", "crossbar":
		return KindCrossbar, nil
	case "mesh":
		return KindMesh, nil
	case "optical":
		return KindOptical, nil
	}
	return 0, fmt.Errorf("interconnect: unknown fabric %q (want bus, xbar, mesh, or optical)", s)
}

// Geometry describes the fabric's shape. Cores and Banks size the request
// and response port arrays for every fabric; the remaining fields apply to
// the kinds noted.
type Geometry struct {
	Cores int
	Banks int

	// SharedData (bus only) collapses the per-bank response crossbar into
	// one shared data bus.
	SharedData bool

	// MeshW x MeshH (mesh only) is the router grid; it must cover
	// max(Cores, Banks) nodes.
	MeshW, MeshH int

	// LinkLat (mesh only) is the per-hop router-to-router latency.
	LinkLat uint64

	// PortBW (crossbar and mesh) is the number of parallel channels per
	// destination port (crossbar) or injection port (mesh).
	PortBW int
}

// Validate checks the geometry for the given kind. The mem layer wraps the
// returned error in its own ErrConfig sentinel.
func (g Geometry) Validate(kind Kind) error {
	if g.Cores <= 0 || g.Banks <= 0 {
		return fmt.Errorf("interconnect: %d cores x %d banks is not a positive geometry", g.Cores, g.Banks)
	}
	switch kind {
	case KindBus, KindOptical:
		return nil
	case KindCrossbar:
		if g.PortBW <= 0 {
			return fmt.Errorf("interconnect: crossbar port bandwidth %d channels is zero or negative", g.PortBW)
		}
		return nil
	case KindMesh:
		if g.PortBW <= 0 {
			return fmt.Errorf("interconnect: mesh injection port bandwidth %d channels is zero or negative", g.PortBW)
		}
		if g.LinkLat == 0 {
			return fmt.Errorf("interconnect: mesh per-hop link latency must be positive")
		}
		if g.MeshW <= 0 || g.MeshH <= 0 {
			return fmt.Errorf("interconnect: mesh dimensions %dx%d are not positive", g.MeshW, g.MeshH)
		}
		if need := max(g.Cores, g.Banks); g.MeshW*g.MeshH < need {
			return fmt.Errorf("interconnect: mesh %dx%d has %d nodes, fewer than max(%d cores, %d banks)",
				g.MeshW, g.MeshH, g.MeshW*g.MeshH, g.Cores, g.Banks)
		}
		return nil
	}
	return fmt.Errorf("interconnect: unknown fabric kind %d", int(kind))
}

// Message is one transaction crossing the fabric. For requests Src is the
// issuing core and Dst the destination bank; for responses Src is the bank
// and Dst the core. Occ is the number of cycles the transfer occupies a
// granted channel or link (the caller computes it from the transaction kind
// and the data-path width). Payload is opaque to the fabric.
type Message[P any] struct {
	Src, Dst int
	Occ      uint64
	Payload  P
}

// Delivery carries the completion callbacks: Req fires when a request
// reaches bank dst, Resp when a response reaches core dst. The `at` cycle
// is in the future at call time; receivers queue on it.
type Delivery[P any] struct {
	Req  func(dst int, p P, at uint64)
	Resp func(dst int, p P, at uint64)
}

// Fabric is the interconnect seam of the memory system.
type Fabric[P any] interface {
	// PushRequest enqueues a request at its source port, available for
	// arbitration at cycle ready. reorder (a chaos-injection effect)
	// places the entry ahead of the youngest entry the same source
	// already has queued, breaking FIFO ordering.
	PushRequest(m Message[P], ready uint64, reorder bool)

	// PushResponse enqueues a response at its source (bank) port.
	PushResponse(m Message[P], ready uint64)

	// Tick arbitrates one cycle; granted transfers invoke the delivery
	// callbacks with their arrival cycle.
	Tick(now uint64)

	// NextEvent returns the earliest cycle at or after now at which Tick
	// would grant or launch a transfer. ok=false: nothing is queued.
	NextEvent(now uint64) (event uint64, ok bool)

	// Quiet reports whether no message is queued at any port.
	Quiet() bool

	// StatsInto emits the fabric's counters under its own key prefix as of
	// cycle end, the first cycle not yet ticked: busy cycles that grants
	// already made reach past it are not counted.
	StatsInto(end uint64, set func(name string, v uint64))

	// ReqLinkName and RespLinkName name the link or port a transaction
	// crosses, for fault attribution (chaos reports, deadlock dumps).
	ReqLinkName(src, dst int) string
	RespLinkName(src, dst int) string

	// Kind identifies the implementation.
	Kind() Kind
}

// timedMsg is one queued message with its earliest-grant cycle.
type timedMsg[P any] struct {
	msg   Message[P]
	ready uint64
}

// New builds a fabric of the given kind. The geometry must be valid.
func New[P any](kind Kind, g Geometry, d Delivery[P]) (Fabric[P], error) {
	if err := g.Validate(kind); err != nil {
		return nil, err
	}
	switch kind {
	case KindBus, KindCrossbar, KindOptical:
		return newArbiter(kind, g, d), nil
	case KindMesh:
		return newMesh(g, d), nil
	}
	return nil, fmt.Errorf("interconnect: unknown fabric kind %d", int(kind))
}

// ports is one direction of a fabric: a FIFO per source port, a bitset of
// the sources with a message queued (so a per-cycle walk visits those
// alone, in ascending order), the number of messages queued across all of
// them (so an idle direction costs Tick one compare), and the longest any
// one queue has been.
type ports[P any] struct {
	q      []sim.Queue[timedMsg[P]]
	queued []uint64
	n      int
	maxLen int
}

func newPorts[P any](sources int) ports[P] {
	return ports[P]{q: make([]sim.Queue[timedMsg[P]], sources), queued: make([]uint64, (sources+63)/64)}
}

// push appends a timed message at its source port, honouring the reorder
// flag's insert-before-youngest semantics. Shared by every fabric so chaos
// reordering behaves identically across topologies.
func (s *ports[P]) push(m Message[P], ready uint64, reorder bool) {
	q := &s.q[m.Src]
	if reorder {
		q.PushBeforeYoungest(timedMsg[P]{m, ready})
	} else {
		q.Push(timedMsg[P]{m, ready})
	}
	s.queued[m.Src>>6] |= 1 << (m.Src & 63)
	s.n++
	s.maxLen = max(s.maxLen, q.Len())
}

// pop removes and returns source src's head message.
func (s *ports[P]) pop(src int) Message[P] {
	s.n--
	q := &s.q[src]
	m := q.Pop().msg
	if q.Len() == 0 {
		s.queued[src>>6] &^= 1 << (src & 63)
	}
	return m
}

// next returns the first source at or after src with a message queued, or
// -1 (sim.NextBit: a walk may pop the source it visits).
func (s *ports[P]) next(src int) int { return sim.NextBit(s.queued, src) }

// ready reports whether source src has a head message ready at cycle now.
func (s *ports[P]) ready(src int, now uint64) bool {
	h := s.q[src].Front()
	return h != nil && h.ready <= now
}
