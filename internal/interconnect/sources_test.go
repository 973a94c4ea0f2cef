package interconnect

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"
)

// Property test of the queued-source bitset: every fabric's per-cycle walks
// visit the bitset's sources only, and must grant exactly what a full scan
// of every source queue grants, in the same order. The reference arbiters
// below are those full scans.

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

// sides returns a fabric's request and response ports.
func sides(f Fabric[int]) (req, resp *ports[int]) {
	switch f := f.(type) {
	case *Bus[int]:
		return &f.req, &f.resp
	case *Crossbar[int]:
		return &f.req.ports, &f.resp.ports
	case *Mesh[int]:
		return &f.req, &f.resp
	case *Optical[int]:
		return &f.req.ports, &f.resp.ports
	}
	panic("unknown fabric")
}

// refTick arbitrates one cycle of f scanning every source.
func refTick(f Fabric[int], now uint64) {
	switch f := f.(type) {
	case *Bus[int]:
		if f.req.n > 0 && now >= f.reqFree {
			if c, ok := refRoundRobin(&f.req, &f.reqNext, now); ok {
				m := f.req.pop(c)
				f.reqFree = grant(now, m.Occ, &f.ReqBusyCyc)
				f.ReqGrants++
				f.d.Req(m.Dst, m.Payload, now+m.Occ)
			}
		}
		if f.resp.n == 0 {
			return
		}
		if f.g.SharedData {
			if now >= f.respFree[0] {
				if k, ok := refRoundRobin(&f.resp, &f.respNext, now); ok {
					f.grantResp(now, k, 0)
				}
			}
			return
		}
		for k := range f.resp.q {
			if now >= f.respFree[k] && f.resp.ready(k, now) {
				f.grantResp(now, k, k)
			}
		}
	case *Crossbar[int]:
		refXbarTick(&f.req, now, f.d.Req)
		refXbarTick(&f.resp, now, f.d.Resp)
	case *Mesh[int]:
		for c := 0; f.req.n > 0 && c < len(f.req.q); c++ {
			if f.req.ready(c, now) {
				f.tryLaunch(now, c, true)
			}
		}
		for b := 0; f.resp.n > 0 && b < len(f.resp.q); b++ {
			if f.resp.ready(b, now) {
				f.tryLaunch(now, b, false)
			}
		}
	case *Optical[int]:
		for _, s := range [2]*opticalSide[int]{&f.req, &f.resp} {
			deliver := f.d.Req
			if s == &f.resp {
				deliver = f.d.Resp
			}
			for src := range s.q {
				if s.n == 0 || now < s.free[src] || !s.ready(src, now) {
					continue
				}
				m := s.pop(src)
				s.free[src] = grant(now, m.Occ, &s.busy)
				s.grants++
				deliver(m.Dst, m.Payload, now+1)
			}
		}
	}
}

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

func refXbarTick(s *xbarSide[int], now uint64, deliver func(int, int, uint64)) {
	if s.n == 0 {
		return
	}
	for src := range s.q {
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

// refNextEvent is f's NextEvent scanning every source head.
func refNextEvent(f Fabric[int], now uint64) (event uint64, ok bool) {
	consider := func(t uint64) {
		if !ok || t < event {
			event, ok = t, true
		}
	}
	req, resp := sides(f)
	for _, s := range [2]*ports[int]{req, resp} {
		for src := range s.q {
			h := s.q[src].Front()
			if h == nil {
				continue
			}
			switch f := f.(type) {
			case *Bus[int]:
				switch {
				case s == req:
					consider(max(h.ready, f.reqFree))
				case f.g.SharedData:
					consider(max(h.ready, f.respFree[0]))
				default:
					consider(max(h.ready, f.respFree[src]))
				}
			case *Crossbar[int]:
				side := &f.req
				if s == resp {
					side = &f.resp
				}
				free := side.free[h.msg.Dst]
				ef := free[0]
				for _, f := range free[1:] {
					ef = min(ef, f)
				}
				consider(max(h.ready, ef))
			case *Mesh[int]:
				t, _ := f.headLaunch(src, s == req)
				consider(t)
			case *Optical[int]:
				free := f.req.free
				if s == resp {
					free = f.resp.free
				}
				consider(max(h.ready, free[src]))
			}
		}
	}
	return event, ok
}

// TestSourceBitsetMatchesFullScan drives two copies of every fabric, at 64
// and 1,024 sources, through one random sequence of pushes, reordering
// pushes and cycles: one ticks as built, the other through the full-scan
// reference. Grants, their order and NextEvent must agree at every cycle,
// and after every cycle each direction's bitset must name exactly its
// non-empty queues (after a push, the pushed source's bit must be set).
func TestSourceBitsetMatchesFullScan(t *testing.T) {
	type variant struct {
		kind   Kind
		shared bool
	}
	variants := []variant{{KindBus, false}, {KindBus, true}, {KindCrossbar, false}, {KindMesh, false}, {KindOptical, false}}
	for _, n := range []int{64, 1024} {
		for _, v := range variants {
			name := fmt.Sprintf("%v/%d", v.kind, n)
			if v.shared {
				name += "/shared-data"
			}
			t.Run(name, func(t *testing.T) {
				w := 8
				if n > 64 {
					w = 32
				}
				g := Geometry{Cores: n, Banks: n / 4, SharedData: v.shared, MeshW: w, MeshH: n / w, LinkLat: 1, PortBW: 2}
				var got, want []rec
				a, b := mustNew(t, v.kind, g, &got), mustNew(t, v.kind, g, &want)
				check := func(now uint64, what string) {
					for _, f := range []Fabric[int]{a, b} {
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
					for _, f := range []Fabric[int]{a, b} {
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
					eb, okb := refNextEvent(b, now)
					if ea != eb || oka != okb {
						t.Fatalf("cycle %d: NextEvent (%d, %v), full scan (%d, %v)", now, ea, oka, eb, okb)
					}
					seen := len(got)
					a.Tick(now)
					refTick(b, now)
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
