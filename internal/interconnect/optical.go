package interconnect

import "fmt"

// Optical is a single-cycle broadcast fabric: a silicon-photonic waveguide
// ring in which every source port owns a dedicated wavelength (WDM), so a
// launched message reaches its destination — any destination — one cycle
// later, with no arbitration between sources and no distance term. It is
// the fabric analogue of the paper's one-cycle barrier-network limit case:
// the topology contributes nothing to synchronization latency, isolating
// the protocol and bank occupancy costs that remain.
//
// Contention exists only at the transmitters: each source port has one
// modulator, which a transfer occupies for Occ cycles (serialization at the
// electrical-to-optical boundary), so per-source bandwidth stays finite and
// source queues drain in strict FIFO order — preserving the per-core
// same-address ordering the barrier and lock sequences rely on. Receivers
// filter by wavelength and accept every cycle; there is no destination-side
// queueing.
type Optical[P any] struct {
	g Geometry
	d Delivery[P]

	req, resp opticalSide[P] // per core, per bank
}

// opticalSide is one direction's transmitters: a FIFO and a modulator-free
// cycle per source.
type opticalSide[P any] struct {
	ports[P]
	free         []uint64
	grants, busy uint64
}

func newOptical[P any](g Geometry, d Delivery[P]) *Optical[P] {
	return &Optical[P]{
		g:    g,
		d:    d,
		req:  opticalSide[P]{ports: newPorts[P](g.Cores), free: make([]uint64, g.Cores)},
		resp: opticalSide[P]{ports: newPorts[P](g.Banks), free: make([]uint64, g.Banks)},
	}
}

func (o *Optical[P]) Kind() Kind { return KindOptical }

// PushRequest enqueues a request at its core's transmitter queue.
func (o *Optical[P]) PushRequest(m Message[P], ready uint64, reorder bool) {
	o.req.push(m, ready, reorder)
}

// PushResponse enqueues a response at its bank's transmitter queue.
func (o *Optical[P]) PushResponse(m Message[P], ready uint64) { o.resp.push(m, ready, false) }

// Tick launches at most one transfer per source transmitter: the head of
// each FIFO whose ready cycle has come and whose modulator is free departs
// now and arrives one cycle later, holding the modulator for Occ cycles.
func (o *Optical[P]) Tick(now uint64) {
	o.req.tick(now, o.d.Req)
	o.resp.tick(now, o.d.Resp)
}

func (s *opticalSide[P]) tick(now uint64, deliver func(int, P, uint64)) {
	if s.n == 0 {
		return
	}
	for src := s.next(0); src >= 0; src = s.next(src + 1) {
		if now < s.free[src] || !s.ready(src, now) {
			continue
		}
		m := s.pop(src)
		s.free[src] = grant(now, m.Occ, &s.busy)
		s.grants++
		// One-cycle flight regardless of (src, dst): delivery is pinned to
		// now+1; the Occ serialization cost is paid at the transmitter only.
		deliver(m.Dst, m.Payload, now+1)
	}
}

// NextEvent returns the earliest cycle at which some transmitter could
// launch its queue head: max(head ready, modulator free). Exact because
// heads change only via Tick and a launch always happens at that cycle.
func (o *Optical[P]) NextEvent(now uint64) (event uint64, ok bool) {
	for _, s := range [2]*opticalSide[P]{&o.req, &o.resp} {
		for src := s.next(0); src >= 0; src = s.next(src + 1) {
			if t := max(s.q[src].Front().ready, s.free[src]); !ok || t < event {
				event, ok = t, true
			}
		}
	}
	return event, ok
}

// Quiet reports whether every transmitter queue is empty.
func (o *Optical[P]) Quiet() bool { return o.req.n == 0 && o.resp.n == 0 }

// StatsInto emits the optical counters under the optical prefix.
func (o *Optical[P]) StatsInto(end uint64, set func(name string, v uint64)) {
	set("optical.request_grants", o.req.grants)
	set("optical.request_busy_cycles", o.req.busy-clipBusy(end, o.req.free...))
	set("optical.response_grants", o.resp.grants)
	set("optical.response_busy_cycles", o.resp.busy-clipBusy(end, o.resp.free...))
	set("optical.max_request_queue", uint64(o.req.maxLen))
	set("optical.max_response_queue", uint64(o.resp.maxLen))
}

// ReqLinkName names the wavelength a request rides.
func (o *Optical[P]) ReqLinkName(src, dst int) string {
	return fmt.Sprintf("optical.c%d-b%d", src, dst)
}

// RespLinkName names the wavelength a response rides.
func (o *Optical[P]) RespLinkName(src, dst int) string {
	return fmt.Sprintf("optical.b%d-c%d", src, dst)
}
