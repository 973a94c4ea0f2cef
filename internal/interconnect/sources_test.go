package interconnect

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"
)

// Property test of every fabric against its kind's rule written out on its
// own: a fabric's per-cycle walks visit the queued-source bitset's sources
// only, and must grant exactly what a full scan of every source queue under
// the rule grants, in the same order. The references below are those full
// scans. Each keeps its own channel state and counters and shares nothing
// with the fabric under test but the source-queue type:
//
//   - bus: one round-robin grant per cycle on the request bus, and one
//     response channel per bank (or one shared data bus);
//   - crossbar: per-destination round-robin over PortBW channels;
//   - optical: one transmitter per source and a one-cycle flight;
//   - mesh: the mesh's own launch rule, tried at every source.

// checkQueued reports where s's bitset or message count disagrees with its
// queues.
func checkQueued[P any](s *ports[P]) error {
	n := 0
	for src := range s.q {
		l := s.q[src].Len()
		n += l
		if got := s.queued[src>>6]&(1<<(src&63)) != 0; got != (l > 0) {
			return fmt.Errorf("source %d: queued bit %v with %d messages", src, got, l)
		}
	}
	if n != s.n {
		return fmt.Errorf("%d messages queued, count says %d", n, s.n)
	}
	return nil
}

// model is what the property test drives: a fabric as built, or a
// reference.
type model interface {
	PushRequest(m Message[int], ready uint64, reorder bool)
	PushResponse(m Message[int], ready uint64)
	Tick(now uint64)
	NextEvent(now uint64) (uint64, bool)
	StatsInto(end uint64, set func(string, uint64))
}

// sides returns a fabric's or a reference's request and response ports.
func sides(f model) (req, resp *ports[int]) {
	switch f := f.(type) {
	case *Arbiter[int]:
		return &f.req.ports, &f.resp.ports
	case *Mesh[int]:
		return &f.req, &f.resp
	case refMesh:
		return &f.req, &f.resp
	case interface{ queues() *refQueues }:
		q := f.queues()
		return &q.req.ports, &q.resp.ports
	}
	panic("unknown fabric")
}

// refSide is one direction of a reference: its source queues and its
// counters.
type refSide struct {
	ports[int]
	grants, busy uint64
}

// send pops source src's head onto a channel free at cycle now, credits the
// channel's busy cycles after this one, delivers the message at the cycle
// the transfer ends (flight 0) or flight cycles from now, and returns the
// cycle the channel frees.
func (s *refSide) send(now uint64, src int, flight uint64, deliver func(int, int, uint64)) uint64 {
	m := s.pop(src)
	s.grants++
	s.busy += m.Occ - 1
	at := now + m.Occ
	if flight > 0 {
		at = now + flight
	}
	deliver(m.Dst, m.Payload, at)
	return now + m.Occ
}

// refQueues is the part every bus, crossbar and optical reference shares:
// both directions' queues, the deliveries and the counters' prefix.
type refQueues struct {
	prefix    string
	d         Delivery[int]
	req, resp refSide
}

func newRefQueues(prefix string, g Geometry, d Delivery[int]) refQueues {
	return refQueues{prefix: prefix, d: d,
		req: refSide{ports: newPorts[int](g.Cores)}, resp: refSide{ports: newPorts[int](g.Banks)}}
}

func (r *refQueues) queues() *refQueues { return r }

func (r *refQueues) PushRequest(m Message[int], ready uint64, reorder bool) {
	r.req.push(m, ready, reorder)
}

func (r *refQueues) PushResponse(m Message[int], ready uint64) { r.resp.push(m, ready, false) }

// stats emits the six counters every bus, crossbar and optical fabric
// reports, each half's busy cycles less those its channels' latest grants
// hold at or after end.
func (r *refQueues) stats(end uint64, reqFree, respFree []uint64, set func(string, uint64)) {
	past := func(free []uint64) (n uint64) {
		for _, f := range free {
			n += max(f, end) - end
		}
		return n
	}
	set(r.prefix+".request_grants", r.req.grants)
	set(r.prefix+".request_busy_cycles", r.req.busy-past(reqFree))
	set(r.prefix+".response_grants", r.resp.grants)
	set(r.prefix+".response_busy_cycles", r.resp.busy-past(respFree))
	set(r.prefix+".max_request_queue", uint64(r.req.maxLen))
	set(r.prefix+".max_response_queue", uint64(r.resp.maxLen))
}

// earliest folds candidate event cycles into the minimum.
type earliest struct {
	t  uint64
	ok bool
}

func (e *earliest) consider(t uint64) {
	if !e.ok || t < e.t {
		e.t, e.ok = t, true
	}
}

// refBus: the request bus grants one ready head per cycle, round-robin over
// every core, and is held for the transfer; each bank's response channel
// grants its own ready head, or one shared data bus grants round-robin over
// every bank.
type refBus struct {
	refQueues
	shared            bool
	reqFree           uint64
	reqNext, respNext int
	respFree          []uint64 // per bank, or one entry when shared
}

func newRefBus(g Geometry, d Delivery[int]) *refBus {
	b := &refBus{refQueues: newRefQueues("bus", g, d), shared: g.SharedData, respFree: make([]uint64, g.Banks)}
	if g.SharedData {
		b.respFree = b.respFree[:1]
	}
	return b
}

// refRoundRobin returns the first source from *next on, cyclically, whose
// head is ready, and moves the cursor just past it.
func refRoundRobin(s *ports[int], next *int, now uint64) (int, bool) {
	n := len(s.q)
	for i := 0; i < n; i++ {
		if src := (*next + i) % n; s.ready(src, now) {
			*next = (src + 1) % n
			return src, true
		}
	}
	return 0, false
}

func (b *refBus) Tick(now uint64) {
	if now >= b.reqFree {
		if c, ok := refRoundRobin(&b.req.ports, &b.reqNext, now); ok {
			b.reqFree = b.req.send(now, c, 0, b.d.Req)
		}
	}
	if b.shared {
		if now >= b.respFree[0] {
			if k, ok := refRoundRobin(&b.resp.ports, &b.respNext, now); ok {
				b.respFree[0] = b.resp.send(now, k, 0, b.d.Resp)
			}
		}
		return
	}
	for k := range b.resp.q {
		if now >= b.respFree[k] && b.resp.ready(k, now) {
			b.respFree[k] = b.resp.send(now, k, 0, b.d.Resp)
		}
	}
}

func (b *refBus) NextEvent(now uint64) (uint64, bool) {
	var e earliest
	for c := range b.req.q {
		if h := b.req.q[c].Front(); h != nil {
			e.consider(max(h.ready, b.reqFree))
		}
	}
	for k := range b.resp.q {
		if h := b.resp.q[k].Front(); h != nil {
			ch := k
			if b.shared {
				ch = 0
			}
			e.consider(max(h.ready, b.respFree[ch]))
		}
	}
	return e.t, e.ok
}

func (b *refBus) StatsInto(end uint64, set func(string, uint64)) {
	b.stats(end, []uint64{b.reqFree}, b.respFree, set)
}

// refXbar: every destination port grants independently, round-robin over
// the sources whose ready head targets it, one per free channel of its
// PortBW; ports grant in ascending order.
type refXbar struct {
	refQueues
	reqPort, respPort []refPort // per bank, per core
}

// refPort is one crossbar destination port: its channels' free cycles and
// its round-robin cursor.
type refPort struct {
	free []uint64
	next int
}

func newRefPorts(n, bw int) []refPort {
	p := make([]refPort, n)
	for i := range p {
		p[i].free = make([]uint64, bw)
	}
	return p
}

func newRefXbar(g Geometry, d Delivery[int]) *refXbar {
	return &refXbar{refQueues: newRefQueues("xbar", g, d),
		reqPort: newRefPorts(g.Banks, g.PortBW), respPort: newRefPorts(g.Cores, g.PortBW)}
}

func (x *refXbar) Tick(now uint64) {
	refXbarTick(&x.req, x.reqPort, now, x.d.Req)
	refXbarTick(&x.resp, x.respPort, now, x.d.Resp)
}

func refXbarTick(s *refSide, port []refPort, now uint64, deliver func(int, int, uint64)) {
	// This cycle's contenders are the heads ready at its start, gathered
	// before any port grants: a granted source's next head waits.
	cand := make([][]int, len(port))
	for src := range s.q {
		if s.ready(src, now) {
			d := s.q[src].Front().msg.Dst
			cand[d] = append(cand[d], src)
		}
	}
	for d, c := range cand {
		if len(c) == 0 {
			continue
		}
		p := &port[d]
		first := 0
		for first < len(c) && c[first] < p.next {
			first++
		}
		k := 0
		for ch := range p.free {
			if k < len(c) && now >= p.free[ch] {
				src := c[(first+k)%len(c)]
				k++
				p.next = (src + 1) % len(s.q)
				p.free[ch] = s.send(now, src, 0, deliver)
			}
		}
	}
}

func (x *refXbar) NextEvent(now uint64) (uint64, bool) {
	var e earliest
	for _, half := range []struct {
		s    *refSide
		port []refPort
	}{{&x.req, x.reqPort}, {&x.resp, x.respPort}} {
		for src := range half.s.q {
			if h := half.s.q[src].Front(); h != nil {
				free := half.port[h.msg.Dst].free
				e.consider(max(h.ready, slices.Min(free)))
			}
		}
	}
	return e.t, e.ok
}

func (x *refXbar) StatsInto(end uint64, set func(string, uint64)) {
	all := func(port []refPort) (free []uint64) {
		for _, p := range port {
			free = append(free, p.free...)
		}
		return free
	}
	x.stats(end, all(x.reqPort), all(x.respPort), set)
}

// refOptical: every source owns one transmitter, which launches its ready
// head when free and is held for the transfer; every launch arrives one
// cycle later.
type refOptical struct {
	refQueues
	reqTx, respTx []uint64 // per core, per bank: the transmitter's free cycle
}

func newRefOptical(g Geometry, d Delivery[int]) *refOptical {
	return &refOptical{refQueues: newRefQueues("optical", g, d),
		reqTx: make([]uint64, g.Cores), respTx: make([]uint64, g.Banks)}
}

func (o *refOptical) Tick(now uint64) {
	for src := range o.req.q {
		if now >= o.reqTx[src] && o.req.ready(src, now) {
			o.reqTx[src] = o.req.send(now, src, 1, o.d.Req)
		}
	}
	for src := range o.resp.q {
		if now >= o.respTx[src] && o.resp.ready(src, now) {
			o.respTx[src] = o.resp.send(now, src, 1, o.d.Resp)
		}
	}
}

func (o *refOptical) NextEvent(now uint64) (uint64, bool) {
	var e earliest
	for src := range o.req.q {
		if h := o.req.q[src].Front(); h != nil {
			e.consider(max(h.ready, o.reqTx[src]))
		}
	}
	for src := range o.resp.q {
		if h := o.resp.q[src].Front(); h != nil {
			e.consider(max(h.ready, o.respTx[src]))
		}
	}
	return e.t, e.ok
}

func (o *refOptical) StatsInto(end uint64, set func(string, uint64)) {
	o.stats(end, o.reqTx, o.respTx, set)
}

// refMesh is a mesh whose walks try every source, not the bitset's.
type refMesh struct{ *Mesh[int] }

func (m refMesh) Tick(now uint64) {
	for c := 0; m.req.n > 0 && c < len(m.req.q); c++ {
		if m.req.ready(c, now) {
			m.tryLaunch(now, c, true)
		}
	}
	for b := 0; m.resp.n > 0 && b < len(m.resp.q); b++ {
		if m.resp.ready(b, now) {
			m.tryLaunch(now, b, false)
		}
	}
}

func (m refMesh) NextEvent(now uint64) (uint64, bool) {
	var e earliest
	for c := range m.req.q {
		if t, ok := m.headLaunch(c, true); ok {
			e.consider(t)
		}
	}
	for b := range m.resp.q {
		if t, ok := m.headLaunch(b, false); ok {
			e.consider(t)
		}
	}
	return e.t, e.ok
}

// newRef builds the full-scan reference of a fabric kind.
func newRef(t *testing.T, kind Kind, g Geometry, trace *[]rec) model {
	d := recorder(trace)
	switch kind {
	case KindBus:
		return newRefBus(g, d)
	case KindCrossbar:
		return newRefXbar(g, d)
	case KindOptical:
		return newRefOptical(g, d)
	case KindMesh:
		return refMesh{mustNew(t, kind, g, trace).(*Mesh[int])}
	}
	panic("unknown fabric")
}

// TestSourceBitsetMatchesFullScan drives every fabric, at 64 and 1,024
// sources, and its kind's full-scan reference through one random sequence
// of pushes, reordering pushes and cycles. Grants, their order and
// NextEvent must agree at every cycle, the counters at the end, and after
// every cycle each direction's bitset must name exactly its non-empty
// queues (after a push, the pushed source's bit must be set).
func TestSourceBitsetMatchesFullScan(t *testing.T) {
	type variant struct {
		kind   Kind
		shared bool
		bw     int
	}
	variants := []variant{{KindBus, false, 2}, {KindBus, true, 2}, {KindCrossbar, false, 2},
		{KindCrossbar, false, 1}, {KindCrossbar, false, 3}, {KindMesh, false, 2}, {KindOptical, false, 2}}
	for _, n := range []int{64, 1024} {
		for _, v := range variants {
			name := fmt.Sprintf("%v/%d", v.kind, n)
			if v.shared {
				name += "/shared-data"
			}
			if v.kind == KindCrossbar && v.bw != 2 {
				name += fmt.Sprintf("/bw%d", v.bw)
			}
			t.Run(name, func(t *testing.T) {
				w := 8
				if n > 64 {
					w = 32
				}
				g := Geometry{Cores: n, Banks: n / 4, SharedData: v.shared, MeshW: w, MeshH: n / w, LinkLat: 1, PortBW: v.bw}
				var got, want []rec
				var a, b model = mustNew(t, v.kind, g, &got), newRef(t, v.kind, g, &want)
				check := func(now uint64, what string) {
					for _, f := range []model{a, b} {
						req, resp := sides(f)
						for _, s := range []*ports[int]{req, resp} {
							if err := checkQueued(s); err != nil {
								t.Fatalf("cycle %d, after %s: %v", now, what, err)
							}
						}
					}
				}
				// checkPushed is check's share a push can change: the
				// source's bit and the count.
				checkPushed := func(now uint64, req bool, src int) {
					for _, f := range []model{a, b} {
						s, resp := sides(f)
						if !req {
							s = resp
						}
						if s.queued[src>>6]&(1<<(src&63)) == 0 || s.n == 0 {
							t.Fatalf("cycle %d: source %d pushed, bit or count not set", now, src)
						}
					}
				}
				rng := rand.New(rand.NewPCG(uint64(n), uint64(v.kind)))
				id := 0
				for now := uint64(0); now < 3000; now++ {
					// Bursts, so some cycles find many sources queued, and
					// light phases on three sources, so some find one
					// source queued behind its own last grant, or none.
					pushes, srcs := rng.IntN(3), n
					switch phase := now % 600; {
					case phase < 3:
						pushes = rng.IntN(64)
					case phase >= 300:
						pushes, srcs = rng.IntN(2)*rng.IntN(2), 3
					}
					for range pushes {
						id++
						ready, occ := now+uint64(rng.IntN(6)), uint64(1+rng.IntN(4))
						src := (rng.IntN(srcs) * 37) % n
						if rng.IntN(3) == 0 {
							m := Message[int]{Src: src % g.Banks, Dst: rng.IntN(n), Occ: occ, Payload: id}
							a.PushResponse(m, ready)
							b.PushResponse(m, ready)
							checkPushed(now, false, m.Src)
						} else {
							m := Message[int]{Src: src, Dst: rng.IntN(g.Banks), Occ: occ, Payload: id}
							reorder := rng.IntN(10) == 0
							a.PushRequest(m, ready, reorder)
							b.PushRequest(m, ready, reorder)
							checkPushed(now, true, m.Src)
						}
					}
					ea, oka := a.NextEvent(now)
					eb, okb := b.NextEvent(now)
					if ea != eb || oka != okb {
						t.Fatalf("cycle %d: NextEvent (%d, %v), full scan (%d, %v)", now, ea, oka, eb, okb)
					}
					seen := len(got)
					a.Tick(now)
					b.Tick(now)
					check(now, "a tick")
					if !reflect.DeepEqual(got[seen:], want[seen:]) {
						t.Fatalf("cycle %d: grants diverge from the full scan:\n got  %v\n want %v", now, got[seen:], want[seen:])
					}
				}
				if len(got) < 1000 {
					t.Fatalf("only %d grants: too few to exercise the walks", len(got))
				}
				sa, sb := map[string]uint64{}, map[string]uint64{}
				a.StatsInto(3000, func(k string, v uint64) { sa[k] = v })
				b.StatsInto(3000, func(k string, v uint64) { sb[k] = v })
				if !reflect.DeepEqual(sa, sb) {
					t.Fatalf("stats %v, full scan %v", sa, sb)
				}
			})
		}
	}
}

// TestPortsBitsetRandomOps pushes, reorder-pushes and pops one direction's
// ports at random: after every operation the bitset names exactly the
// non-empty queues, and a walk from any source visits what a scan does.
func TestPortsBitsetRandomOps(t *testing.T) {
	for _, n := range []int{64, 1024} {
		s := newPorts[int](n)
		rng := rand.New(rand.NewPCG(uint64(n), 7))
		for op := 0; op < 4000; op++ {
			src := rng.IntN(n)
			switch r := rng.IntN(10); {
			case r < 4:
				s.push(Message[int]{Src: src, Payload: op}, 0, r == 0)
			case s.q[src].Len() > 0:
				s.pop(src)
			}
			if err := checkQueued(&s); err != nil {
				t.Fatalf("%d sources, op %d: %v", n, op, err)
			}
			from := rng.IntN(n + 1)
			var walk, scan []int
			for x := s.next(from); x >= 0; x = s.next(x + 1) {
				walk = append(walk, x)
			}
			for x := from; x < n; x++ {
				if s.q[x].Len() > 0 {
					scan = append(scan, x)
				}
			}
			if !reflect.DeepEqual(walk, scan) {
				t.Fatalf("%d sources, op %d: walk from %d visits %v, scan %v", n, op, from, walk, scan)
			}
		}
	}
}
