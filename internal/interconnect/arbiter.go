package interconnect

import "fmt"

// Arbiter is every fabric in which source FIFOs contend for resources of a
// few channels each, granted round-robin: the paper's split-transaction
// bus (Table 2), a full core-to-bank crossbar and a single-cycle optical
// waveguide. The three differ only in which resource a message needs, how
// many channels a resource has, and when a granted message arrives:
//
//   - bus: every request needs the one address bus, the shared resource
//     whose saturation past 16 cores the paper reports; writebacks and
//     dirty invalidations carry their line on it and hold it for the full
//     transfer. Each response needs its bank's data channel (a
//     Niagara-style per-bank crossbar), or the one shared data bus under
//     Geometry.SharedData. A message arrives when its transfer ends.
//   - crossbar: a message needs its destination port (a bank for
//     requests, a core for responses), which has PortBW channels, so
//     messages bound for different ports never serialize against each
//     other. It arrives when its transfer ends.
//   - optical: every source owns a dedicated wavelength, so a message needs
//     only its source's own modulator (serialization at the
//     electrical-to-optical boundary; receivers filter by wavelength and
//     accept every cycle). It arrives one cycle after launch, whatever the
//     destination: the fabric analogue of the one-cycle barrier network,
//     leaving only protocol and bank occupancy in synchronization latency.
//
// A source launches at most one message per cycle, and its queue is strict
// FIFO (but for chaos reordering), which gives the per-core same-address
// ordering the barrier sequences rely on: an ICBI/DCBI transaction always
// reaches the bank before the fill the same core issues afterwards. The
// fabric golden (differential_test.go at the repo root) pins every kind's
// cycle counts and statistics byte-for-byte.
type Arbiter[P any] struct {
	kind      Kind
	d         Delivery[P]
	req, resp side[P]
}

// need names the resource a message needs. A destination port has PortBW
// channels; the other two resources have one.
type need uint8

const (
	needOne need = iota // the side's one resource: an address or shared data bus
	needSrc             // its source's own: a bank's data channel, a modulator
	needDst             // its destination port
)

// side is one direction of an arbiter: the source FIFOs and the resources
// they contend for. Resource r's channels are free[r*bw : r*bw+bw], each
// holding the first cycle it is free.
type side[P any] struct {
	ports[P]
	need   need
	bw     int
	flight uint64 // 0: a message arrives when its transfer ends; else this many cycles after launch
	free   []uint64
	rr     []int // per resource, but a source's own: the next source to consider

	// Per-cycle scratch for destination ports: the sources whose ready
	// head needs each, ascending, and the ports that have any, ascending.
	cand [][]int
	res  []int

	grants, busy uint64
}

// newArbiter derives the resource maps of a bus, crossbar or optical
// fabric from its kind.
func newArbiter[P any](kind Kind, g Geometry, d Delivery[P]) *Arbiter[P] {
	req, resp, flight := needDst, needDst, uint64(0)
	switch kind {
	case KindBus:
		req, resp = needOne, needSrc
		if g.SharedData {
			resp = needOne
		}
	case KindOptical:
		req, resp, flight = needSrc, needSrc, 1
	}
	return &Arbiter[P]{kind: kind, d: d,
		req:  newSide[P](g.Cores, g.Banks, g.PortBW, req, flight),
		resp: newSide[P](g.Banks, g.Cores, g.PortBW, resp, flight)}
}

func newSide[P any](sources, dests, portBW int, n need, flight uint64) side[P] {
	s := side[P]{ports: newPorts[P](sources), need: n, bw: 1, flight: flight}
	switch n {
	case needOne:
		s.free, s.rr = make([]uint64, 1), make([]int, 1)
	case needSrc:
		s.free = make([]uint64, sources)
	case needDst:
		s.bw = portBW
		s.free, s.rr, s.cand = make([]uint64, dests*portBW), make([]int, dests), make([][]int, dests)
	}
	return s
}

func (a *Arbiter[P]) Kind() Kind { return a.kind }

// PushRequest enqueues a request at its core's queue.
func (a *Arbiter[P]) PushRequest(m Message[P], ready uint64, reorder bool) {
	a.req.push(m, ready, reorder)
}

// PushResponse enqueues a response at its bank's queue.
func (a *Arbiter[P]) PushResponse(m Message[P], ready uint64) { a.resp.push(m, ready, false) }

// Tick arbitrates both directions for one cycle, requests first.
func (a *Arbiter[P]) Tick(now uint64) {
	if a.req.n > 0 {
		a.req.tick(now, a.d.Req)
	}
	if a.resp.n > 0 {
		a.resp.tick(now, a.d.Resp)
	}
}

// freeAt returns the first cycle some channel of the resource message m
// needs is free.
func (s *side[P]) freeAt(m *Message[P]) uint64 {
	switch s.need {
	case needOne:
		return s.free[0]
	case needSrc:
		return s.free[m.Src]
	}
	ch := s.free[m.Dst*s.bw : m.Dst*s.bw+s.bw]
	t := ch[0]
	for _, f := range ch[1:] {
		t = min(t, f)
	}
	return t
}

// tick arbitrates one direction for one cycle. This cycle's contenders are
// exactly the heads ready at its start: a granted source's next message
// waits for the next cycle. Each resource grants round-robin from its
// cursor, one contender per free channel, and resources grant in ascending
// order (the order deliveries reach the memory system). Only destination
// ports need a list of contenders: a side's one resource takes the first
// ready head from its cursor on, and a source's own resource has one
// contender.
func (s *side[P]) tick(now uint64, deliver func(int, P, uint64)) {
	switch {
	case s.need == needOne:
		if now >= s.free[0] {
			if src := s.nextReady(s.rr[0], now); src >= 0 {
				s.rr[0] = (src + 1) % len(s.q)
				s.send(now, src, 0, deliver)
			}
		}
	case s.need == needSrc:
		for src := s.next(0); src >= 0; src = s.next(src + 1) {
			if now >= s.free[src] && s.ready(src, now) {
				s.send(now, src, src, deliver)
			}
		}
	default:
		s.tickPorts(now, deliver)
	}
}

// tickPorts grants the destination ports some ready head needs.
func (s *side[P]) tickPorts(now uint64, deliver func(int, P, uint64)) {
	for src := s.next(0); src >= 0; src = s.next(src + 1) {
		h := s.q[src].Front()
		if h.ready > now {
			continue
		}
		r := h.msg.Dst
		if len(s.cand[r]) == 0 {
			i := len(s.res)
			s.res = append(s.res, r)
			for ; i > 0 && s.res[i-1] > r; i-- {
				s.res[i] = s.res[i-1]
			}
			s.res[i] = r
		}
		s.cand[r] = append(s.cand[r], src)
	}
	for _, r := range s.res {
		c := s.cand[r]
		first := 0
		for first < len(c) && c[first] < s.rr[r] {
			first++
		}
		k := 0
		for ch := r * s.bw; ch < r*s.bw+s.bw && k < len(c); ch++ {
			if now < s.free[ch] {
				continue
			}
			src := c[(first+k)%len(c)]
			k++
			s.rr[r] = (src + 1) % len(s.q)
			s.send(now, src, ch, deliver)
		}
		s.cand[r] = c[:0]
	}
	s.res = s.res[:0]
}

// nextReady returns the first source at or after from, cyclically, whose
// head is ready at cycle now, or -1.
func (s *side[P]) nextReady(from int, now uint64) int {
	for src := s.next(from); src >= 0; src = s.next(src + 1) {
		if s.ready(src, now) {
			return src
		}
	}
	for src := s.next(0); src >= 0 && src < from; src = s.next(src + 1) {
		if s.ready(src, now) {
			return src
		}
	}
	return -1
}

// send grants source src's head channel ch from cycle now for max(Occ, 1)
// cycles and delivers it. The channel is busy at every later cycle before
// it frees, which is credited here, once; clip takes back what lies past
// the cycle the counters are read at.
func (s *side[P]) send(now uint64, src, ch int, deliver func(int, P, uint64)) {
	m := s.pop(src)
	occ := max(m.Occ, 1)
	s.busy += occ - 1
	s.free[ch] = now + occ
	s.grants++
	at := now + occ
	if s.flight > 0 {
		at = now + s.flight
	}
	deliver(m.Dst, m.Payload, at)
}

// clip returns the busy cycles credited by send that fall at or after cycle
// end. Grants on one channel never overlap, so only its latest grant can
// reach past end.
func (s *side[P]) clip(end uint64) (n uint64) {
	for _, f := range s.free {
		n += max(f, end) - end
	}
	return n
}

// NextEvent returns the earliest cycle at which some queued head could be
// granted: max(head ready, the first cycle a channel of its resource is
// free). Exact because heads and channels change only under Tick, and a
// contended resource still grants at that cycle.
func (a *Arbiter[P]) NextEvent(now uint64) (event uint64, ok bool) {
	for _, s := range [2]*side[P]{&a.req, &a.resp} {
		for src := s.next(0); src >= 0; src = s.next(src + 1) {
			h := s.q[src].Front()
			if t := max(h.ready, s.freeAt(&h.msg)); !ok || t < event {
				event, ok = t, true
			}
		}
	}
	return event, ok
}

// Quiet reports whether every source queue is empty.
func (a *Arbiter[P]) Quiet() bool { return a.req.n == 0 && a.resp.n == 0 }

// statNames holds each kind's counter names, joined once: StatsInto allocates nothing.
var statNames = func() (t [KindOptical + 1][6]string) {
	for _, k := range Kinds {
		p := k.String() + "."
		t[k] = [6]string{p + "request_grants", p + "request_busy_cycles", p + "response_grants",
			p + "response_busy_cycles", p + "max_request_queue", p + "max_response_queue"}
	}
	return t
}()

// StatsInto emits the counters under the kind's prefix; the fabric golden
// depends on these keys and values being stable.
func (a *Arbiter[P]) StatsInto(end uint64, set func(name string, v uint64)) {
	for i, v := range [...]uint64{a.req.grants, a.req.busy - a.req.clip(end), a.resp.grants,
		a.resp.busy - a.resp.clip(end), uint64(a.req.maxLen), uint64(a.resp.maxLen)} {
		set(statNames[a.kind][i], v)
	}
}

// ReqLinkName names the link a request crosses: the bus keeps its
// pre-fabric name, the one shared address bus; the crossbar and the
// optical fabric name the core-to-bank crosspoint or wavelength.
func (a *Arbiter[P]) ReqLinkName(src, dst int) string {
	if a.kind == KindBus {
		return "bus"
	}
	return fmt.Sprintf("%v.c%d-b%d", a.kind, src, dst)
}

// RespLinkName names the link a response crosses.
func (a *Arbiter[P]) RespLinkName(src, dst int) string {
	if a.kind == KindBus {
		return "resp"
	}
	return fmt.Sprintf("%v.b%d-c%d", a.kind, src, dst)
}
