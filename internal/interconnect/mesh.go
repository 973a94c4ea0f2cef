package interconnect

import "fmt"

// Mesh is a W x H 2D-mesh network-on-chip. Each router hosts a core
// network interface (core c at node c mod W*H) and possibly a bank
// interface (bank b at node b*W*H/Banks, spreading the banks evenly across
// the grid). Messages are routed XY (dimension-ordered: all X hops, then
// all Y hops), which is deadlock-free and deterministic.
//
// Timing model: a message launches from its source port when its ready
// cycle has passed, one of the port's PortBW injection channels is free,
// and the first link of its route is free. At launch the whole route is
// reserved link by link — each link is held for Occ cycles from the cycle
// the message reaches it (waiting out any earlier reservation), and the
// head advances one hop per LinkLat cycles — so the arrival cycle is known
// at launch and delivered to the receiving queue immediately. Waiting
// inside the network is accounted in mesh.link_wait_cycles.
//
// Deliberate simplifications (DESIGN.md section 10): routers have no
// finite buffering, so there is no head-of-line blocking at intermediate
// hops and no credit flow control; reservations are made in message order
// at launch, so a later launch cannot use a bandwidth hole in front of an
// earlier reservation on its first link. Per-source FIFO ordering toward a
// fixed destination holds because a source launches in queue order and
// both messages reserve the same XY path with monotonically increasing
// link times.
type Mesh[P any] struct {
	g    Geometry
	d    Delivery[P]
	w, h int

	req  ports[P] // per core
	resp ports[P] // per bank

	reqInj  [][]uint64 // per core: PortBW injection-channel free cycles
	respInj [][]uint64 // per bank

	linkFree []uint64 // per directed link: node*4 + direction

	// statistics
	ReqGrants   uint64
	RespGrants  uint64
	HopsTotal   uint64
	LinkWaitCyc uint64
}

// Directed-link direction codes: linkFree[node*4+dir] is the link leaving
// node toward +x, -x, +y, -y respectively.
const (
	dirEast = iota
	dirWest
	dirSouth
	dirNorth
)

func newMesh[P any](g Geometry, d Delivery[P]) *Mesh[P] {
	m := &Mesh[P]{
		g:        g,
		d:        d,
		w:        g.MeshW,
		h:        g.MeshH,
		req:      newPorts[P](g.Cores),
		resp:     newPorts[P](g.Banks),
		reqInj:   make([][]uint64, g.Cores),
		respInj:  make([][]uint64, g.Banks),
		linkFree: make([]uint64, g.MeshW*g.MeshH*4),
	}
	for c := range m.reqInj {
		m.reqInj[c] = make([]uint64, g.PortBW)
	}
	for b := range m.respInj {
		m.respInj[b] = make([]uint64, g.PortBW)
	}
	return m
}

func (m *Mesh[P]) Kind() Kind { return KindMesh }

func (m *Mesh[P]) coreNode(c int) int { return c % (m.w * m.h) }

func (m *Mesh[P]) bankNode(b int) int { return b * m.w * m.h / m.g.Banks }

// walk visits the directed links of the XY route from node to node.
func (m *Mesh[P]) walk(from, to int, fn func(link int)) {
	x, y := from%m.w, from/m.w
	tx, ty := to%m.w, to/m.w
	for x < tx {
		fn((y*m.w+x)*4 + dirEast)
		x++
	}
	for x > tx {
		fn((y*m.w+x)*4 + dirWest)
		x--
	}
	for y < ty {
		fn((y*m.w+x)*4 + dirSouth)
		y++
	}
	for y > ty {
		fn((y*m.w+x)*4 + dirNorth)
		y--
	}
}

// firstLink returns the first link of the XY route, ok=false when source
// and destination share a node.
func (m *Mesh[P]) firstLink(from, to int) (link int, ok bool) {
	x, y, tx, ty := from%m.w, from/m.w, to%m.w, to/m.w
	switch {
	case x < tx:
		return from*4 + dirEast, true
	case x > tx:
		return from*4 + dirWest, true
	case y < ty:
		return from*4 + dirSouth, true
	case y > ty:
		return from*4 + dirNorth, true
	}
	return 0, false
}

// PushRequest enqueues a request at its core's injection port.
func (m *Mesh[P]) PushRequest(msg Message[P], ready uint64, reorder bool) {
	m.req.push(msg, ready, reorder)
}

// PushResponse enqueues a response at its bank's injection port.
func (m *Mesh[P]) PushResponse(msg Message[P], ready uint64) { m.resp.push(msg, ready, false) }

// Tick launches at most one message per source port.
func (m *Mesh[P]) Tick(now uint64) {
	for c := m.req.next(0); c >= 0; c = m.req.next(c + 1) {
		if m.req.ready(c, now) {
			m.tryLaunch(now, c, true)
		}
	}
	for b := m.resp.next(0); b >= 0; b = m.resp.next(b + 1) {
		if m.resp.ready(b, now) {
			m.tryLaunch(now, b, false)
		}
	}
}

// tryLaunch launches port's ready head if an injection channel and the
// route's first link are free.
func (m *Mesh[P]) tryLaunch(now uint64, port int, req bool) {
	side, inj := &m.resp, m.respInj
	if req {
		side, inj = &m.req, m.reqInj
	}
	head := side.q[port].Front()
	ch := 0
	for i, f := range inj[port] {
		if f < inj[port][ch] {
			ch = i
		}
	}
	if inj[port][ch] > now {
		return
	}
	from, to := m.route(head.msg, req)
	if first, hasLink := m.firstLink(from, to); hasLink && m.linkFree[first] > now {
		return
	}
	// Launch: pop, hold the injection channel, reserve the route. The time
	// the head spent eligible but blocked by its first link is contention.
	m.LinkWaitCyc += now - max(head.ready, inj[port][ch])
	msg := side.pop(port)
	occ := max(msg.Occ, 1)
	inj[port][ch] = now + occ
	t := now
	m.walk(from, to, func(link int) {
		s := max(t, m.linkFree[link])
		m.LinkWaitCyc += s - t
		m.linkFree[link] = s + occ
		t = s + m.g.LinkLat
		m.HopsTotal++
	})
	at := t + occ // ejection: the tail crosses the destination interface
	if req {
		m.ReqGrants++
		m.d.Req(msg.Dst, msg.Payload, at)
	} else {
		m.RespGrants++
		m.d.Resp(msg.Dst, msg.Payload, at)
	}
}

// NextEvent returns the earliest cycle some port head could launch:
// max(head ready, earliest injection channel, first-link free). Exact:
// link and channel reservations only move under Tick, and arrivals are
// delivered to the receiving queues at launch time, so the fabric itself
// holds no future work beyond these launch points.
func (m *Mesh[P]) NextEvent(now uint64) (event uint64, ok bool) {
	consider := func(t uint64) {
		if !ok || t < event {
			event, ok = t, true
		}
	}
	for c := m.req.next(0); c >= 0; c = m.req.next(c + 1) {
		if t, o := m.headLaunch(c, true); o {
			consider(t)
		}
	}
	for b := m.resp.next(0); b >= 0; b = m.resp.next(b + 1) {
		if t, o := m.headLaunch(b, false); o {
			consider(t)
		}
	}
	return event, ok
}

func (m *Mesh[P]) headLaunch(port int, req bool) (t uint64, ok bool) {
	side, inj := &m.resp, m.respInj
	if req {
		side, inj = &m.req, m.reqInj
	}
	h := side.q[port].Front()
	if h == nil {
		return 0, false
	}
	ch := inj[port][0]
	for _, f := range inj[port][1:] {
		ch = min(ch, f)
	}
	t = max(h.ready, ch)
	if first, hasLink := m.firstLink(m.route(h.msg, req)); hasLink {
		t = max(t, m.linkFree[first])
	}
	return t, true
}

// route returns the source and destination nodes of a request (core to
// bank) or response (bank to core).
func (m *Mesh[P]) route(msg Message[P], req bool) (from, to int) {
	if req {
		return m.coreNode(msg.Src), m.bankNode(msg.Dst)
	}
	return m.bankNode(msg.Src), m.coreNode(msg.Dst)
}

// Quiet reports whether every injection queue is empty (launched messages
// already live in the receivers' queues).
func (m *Mesh[P]) Quiet() bool { return m.req.n == 0 && m.resp.n == 0 }

// StatsInto emits the mesh counters under the mesh prefix. The mesh accounts
// waiting at reservation time (mesh.link_wait_cycles), so end clips nothing.
func (m *Mesh[P]) StatsInto(end uint64, set func(name string, v uint64)) {
	set("mesh.request_grants", m.ReqGrants)
	set("mesh.response_grants", m.RespGrants)
	set("mesh.hops_total", m.HopsTotal)
	set("mesh.link_wait_cycles", m.LinkWaitCyc)
	set("mesh.max_request_queue", uint64(m.req.maxLen))
	set("mesh.max_response_queue", uint64(m.resp.maxLen))
}

// ReqLinkName names the XY route a request takes, for fault attribution.
func (m *Mesh[P]) ReqLinkName(src, dst int) string {
	f, t := m.coreNode(src), m.bankNode(dst)
	return fmt.Sprintf("mesh.c%d(%d,%d)->b%d(%d,%d)", src, f%m.w, f/m.w, dst, t%m.w, t/m.w)
}

// RespLinkName names the XY route a response takes.
func (m *Mesh[P]) RespLinkName(src, dst int) string {
	f, t := m.bankNode(src), m.coreNode(dst)
	return fmt.Sprintf("mesh.b%d(%d,%d)->c%d(%d,%d)", src, f%m.w, f/m.w, dst, t%m.w, t/m.w)
}
