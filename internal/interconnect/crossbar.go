package interconnect

import "fmt"

// Crossbar is a full core-to-bank crossbar. Unlike the bus, there is no
// shared arbiter: every destination port (each L2 bank on the request side,
// each core on the response side) grants independently every cycle, so
// requests bound for different banks never serialize against each other.
// Contention remains at two places only:
//
//   - destination ports have PortBW parallel channels; a transfer occupies
//     its channel for Occ cycles, and a port with every channel busy defers
//     its queued messages (finite per-port bandwidth);
//   - source ports inject at most one message per cycle, so a single core
//     cannot exceed its own link bandwidth even when many banks are free.
//
// Arbitration at each destination port is round-robin across sources, and
// source queues are strict FIFO, which preserves the per-core same-address
// ordering the barrier sequences rely on.
type Crossbar[P any] struct {
	g Geometry
	d Delivery[P]

	req  xbarSide[P] // cores -> banks
	resp xbarSide[P] // banks -> cores
}

// xbarSide is one direction of the crossbar: source FIFOs and the
// destination ports they contend for.
type xbarSide[P any] struct {
	ports[P]
	free [][]uint64 // per destination: PortBW channel-free cycles
	rr   []int      // per destination: next source to consider

	// Per-cycle scratch: the sources whose ready head targets each
	// destination, ascending, and the destinations that have any.
	cand [][]int
	dsts []int

	grants, busy uint64
}

func newXbarSide[P any](sources, dests, bw int) xbarSide[P] {
	s := xbarSide[P]{
		ports: newPorts[P](sources),
		free:  make([][]uint64, dests),
		rr:    make([]int, dests),
		cand:  make([][]int, dests),
	}
	for d := range s.free {
		s.free[d] = make([]uint64, bw)
	}
	return s
}

func newCrossbar[P any](g Geometry, d Delivery[P]) *Crossbar[P] {
	return &Crossbar[P]{
		g:    g,
		d:    d,
		req:  newXbarSide[P](g.Cores, g.Banks, g.PortBW),
		resp: newXbarSide[P](g.Banks, g.Cores, g.PortBW),
	}
}

func (x *Crossbar[P]) Kind() Kind { return KindCrossbar }

// PushRequest enqueues a request at its core's injection queue.
func (x *Crossbar[P]) PushRequest(m Message[P], ready uint64, reorder bool) {
	x.req.push(m, ready, reorder)
}

// PushResponse enqueues a response at its bank's injection queue.
func (x *Crossbar[P]) PushResponse(m Message[P], ready uint64) { x.resp.push(m, ready, false) }

// Tick grants transfers at every destination port independently.
func (x *Crossbar[P]) Tick(now uint64) {
	x.req.tick(now, x.d.Req)
	x.resp.tick(now, x.d.Resp)
}

// tick arbitrates one direction for one cycle, visiting only the
// destinations some ready source head targets, in ascending order (the
// order deliveries reach the memory system). A source injects at most one
// message per cycle, so this cycle's contenders are exactly the heads ready
// at its start: a granted source's next message waits for the next cycle.
func (s *xbarSide[P]) tick(now uint64, deliver func(int, P, uint64)) {
	if s.n == 0 {
		return
	}
	for src := s.next(0); src >= 0; src = s.next(src + 1) {
		if !s.ready(src, now) {
			continue
		}
		d := s.q[src].Front().msg.Dst
		if len(s.cand[d]) == 0 {
			i := len(s.dsts)
			s.dsts = append(s.dsts, d)
			for ; i > 0 && s.dsts[i-1] > d; i-- {
				s.dsts[i] = s.dsts[i-1]
			}
			s.dsts[i] = d
		}
		s.cand[d] = append(s.cand[d], src)
	}
	for _, d := range s.dsts {
		c := s.cand[d]
		// Round-robin: the first contender at or after the cursor, then on
		// around, one per free channel.
		first := 0
		for first < len(c) && c[first] < s.rr[d] {
			first++
		}
		k := 0
		for ch, f := range s.free[d] {
			if k == len(c) {
				break
			}
			if now < f {
				continue
			}
			src := c[(first+k)%len(c)]
			k++
			m := s.pop(src)
			s.rr[d] = (src + 1) % len(s.q)
			s.free[d][ch] = grant(now, m.Occ, &s.busy)
			s.grants++
			deliver(d, m.Payload, s.free[d][ch])
		}
		s.cand[d] = c[:0]
	}
	s.dsts = s.dsts[:0]
}

// NextEvent returns the earliest cycle at which some destination port could
// grant a queued head: max(head ready, earliest channel-free cycle of its
// destination). Exact because source heads only change via Tick, and a
// contended cycle still performs a grant at that cycle.
func (x *Crossbar[P]) NextEvent(now uint64) (event uint64, ok bool) {
	for _, s := range [2]*xbarSide[P]{&x.req, &x.resp} {
		for src := s.next(0); src >= 0; src = s.next(src + 1) {
			h := s.q[src].Front()
			free := s.free[h.msg.Dst]
			ef := free[0]
			for _, f := range free[1:] {
				ef = min(ef, f)
			}
			if t := max(h.ready, ef); !ok || t < event {
				event, ok = t, true
			}
		}
	}
	return event, ok
}

// Quiet reports whether every source queue is empty.
func (x *Crossbar[P]) Quiet() bool { return x.req.n == 0 && x.resp.n == 0 }

// StatsInto emits the crossbar counters under the xbar prefix.
func (x *Crossbar[P]) StatsInto(end uint64, set func(name string, v uint64)) {
	set("xbar.request_grants", x.req.grants)
	set("xbar.request_busy_cycles", x.req.busy-x.req.clip(end))
	set("xbar.response_grants", x.resp.grants)
	set("xbar.response_busy_cycles", x.resp.busy-x.resp.clip(end))
	set("xbar.max_request_queue", uint64(x.req.maxLen))
	set("xbar.max_response_queue", uint64(x.resp.maxLen))
}

// clip is clipBusy over every channel of every destination port.
func (s *xbarSide[P]) clip(end uint64) (n uint64) {
	for _, free := range s.free {
		n += clipBusy(end, free...)
	}
	return n
}

// ReqLinkName names the core-to-bank crosspoint a request crosses.
func (x *Crossbar[P]) ReqLinkName(src, dst int) string {
	return fmt.Sprintf("xbar.c%d-b%d", src, dst)
}

// RespLinkName names the bank-to-core crosspoint a response crosses.
func (x *Crossbar[P]) RespLinkName(src, dst int) string {
	return fmt.Sprintf("xbar.b%d-c%d", src, dst)
}
