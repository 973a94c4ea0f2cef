package interconnect

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// rec is one delivered message, in grant order.
type rec struct {
	req bool
	dst int
	id  int
	at  uint64
}

// recorder builds a Delivery that appends to a shared trace.
func recorder(trace *[]rec) Delivery[int] {
	return Delivery[int]{
		Req:  func(dst int, id int, at uint64) { *trace = append(*trace, rec{true, dst, id, at}) },
		Resp: func(dst int, id int, at uint64) { *trace = append(*trace, rec{false, dst, id, at}) },
	}
}

func mustNew(t *testing.T, kind Kind, g Geometry, trace *[]rec) Fabric[int] {
	t.Helper()
	f, err := New(kind, g, recorder(trace))
	if err != nil {
		t.Fatalf("New(%v): %v", kind, err)
	}
	return f
}

func TestKindParseRoundTrip(t *testing.T) {
	for _, k := range Kinds {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Fatalf("ParseKind(%q) = %v, %v; want %v", k.String(), got, err, k)
		}
	}
	if _, err := ParseKind("hypercube"); err == nil {
		t.Fatal("ParseKind accepted an unknown fabric")
	}
	if got, err := ParseKind("crossbar"); err != nil || got != KindCrossbar {
		t.Fatalf("ParseKind(crossbar) = %v, %v", got, err)
	}
}

func TestGeometryValidate(t *testing.T) {
	base := Geometry{Cores: 8, Banks: 4, MeshW: 4, MeshH: 2, LinkLat: 1, PortBW: 1}
	cases := []struct {
		name string
		kind Kind
		mod  func(*Geometry)
		want string // "" = valid
	}{
		{"bus-ok", KindBus, func(g *Geometry) {}, ""},
		{"bus-ignores-mesh-fields", KindBus, func(g *Geometry) { g.MeshW, g.PortBW = 0, 0 }, ""},
		{"no-cores", KindBus, func(g *Geometry) { g.Cores = 0 }, "positive geometry"},
		{"xbar-ok", KindCrossbar, func(g *Geometry) {}, ""},
		{"xbar-zero-bw", KindCrossbar, func(g *Geometry) { g.PortBW = 0 }, "zero or negative"},
		{"mesh-ok", KindMesh, func(g *Geometry) {}, ""},
		{"mesh-zero-bw", KindMesh, func(g *Geometry) { g.PortBW = -1 }, "zero or negative"},
		{"mesh-zero-lat", KindMesh, func(g *Geometry) { g.LinkLat = 0 }, "latency must be positive"},
		{"mesh-no-dims", KindMesh, func(g *Geometry) { g.MeshW, g.MeshH = 0, 0 }, "not positive"},
		{"mesh-too-small", KindMesh, func(g *Geometry) { g.MeshW, g.MeshH = 2, 2 }, "fewer than"},
		{"unknown-kind", Kind(99), func(g *Geometry) {}, "unknown fabric kind"},
	}
	for _, tc := range cases {
		g := base
		tc.mod(&g)
		err := g.Validate(tc.kind)
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestBusSerializesRequests: the shared address bus grants one request per
// cycle round-robin, and a multi-cycle occupancy holds the bus.
func TestBusSerializesRequests(t *testing.T) {
	var trace []rec
	f := mustNew(t, KindBus, Geometry{Cores: 4, Banks: 2}, &trace)
	// Three single-cycle requests from different cores, same ready cycle.
	for c := 0; c < 3; c++ {
		f.PushRequest(Message[int]{Src: c, Dst: c % 2, Occ: 1, Payload: c}, 5, false)
	}
	for now := uint64(0); now < 20; now++ {
		f.Tick(now)
	}
	want := []rec{{true, 0, 0, 6}, {true, 1, 1, 7}, {true, 0, 2, 8}}
	if !reflect.DeepEqual(trace, want) {
		t.Fatalf("grant trace %v, want %v", trace, want)
	}
	if !f.Quiet() {
		t.Fatal("bus not quiet after drain")
	}
}

// TestCrossbarParallelBanks: requests to distinct banks grant in the same
// cycle; requests to one bank serialize on its PortBW channels.
func TestCrossbarParallelBanks(t *testing.T) {
	var trace []rec
	f := mustNew(t, KindCrossbar, Geometry{Cores: 4, Banks: 4, PortBW: 1}, &trace)
	for c := 0; c < 4; c++ {
		f.PushRequest(Message[int]{Src: c, Dst: c, Occ: 4, Payload: c}, 5, false)
	}
	for now := uint64(0); now < 12; now++ {
		f.Tick(now)
	}
	if len(trace) != 4 {
		t.Fatalf("granted %d of 4", len(trace))
	}
	for _, r := range trace {
		if r.at != 9 { // all granted at cycle 5, occupancy 4
			t.Fatalf("distinct-bank request arrived at %d, want 9: %v", r.at, trace)
		}
	}

	// Same bank: serialized by the single channel.
	trace = trace[:0]
	f2 := mustNew(t, KindCrossbar, Geometry{Cores: 4, Banks: 4, PortBW: 1}, &trace)
	for c := 0; c < 3; c++ {
		f2.PushRequest(Message[int]{Src: c, Dst: 2, Occ: 4, Payload: c}, 5, false)
	}
	for now := uint64(0); now < 30; now++ {
		f2.Tick(now)
	}
	var ats []uint64
	for _, r := range trace {
		ats = append(ats, r.at)
	}
	if want := []uint64{9, 13, 17}; !reflect.DeepEqual(ats, want) {
		t.Fatalf("same-bank arrivals %v, want %v", ats, want)
	}

	// PortBW=2 doubles the bank's concurrency.
	trace = trace[:0]
	f3 := mustNew(t, KindCrossbar, Geometry{Cores: 4, Banks: 4, PortBW: 2}, &trace)
	for c := 0; c < 4; c++ {
		f3.PushRequest(Message[int]{Src: c, Dst: 2, Occ: 4, Payload: c}, 5, false)
	}
	for now := uint64(0); now < 30; now++ {
		f3.Tick(now)
	}
	ats = ats[:0]
	for _, r := range trace {
		ats = append(ats, r.at)
	}
	if want := []uint64{9, 9, 13, 13}; !reflect.DeepEqual(ats, want) {
		t.Fatalf("PortBW=2 arrivals %v, want %v", ats, want)
	}
}

// TestCrossbarSourceSerialization: one core cannot inject two requests in
// the same cycle even when both destination banks are free.
func TestCrossbarSourceSerialization(t *testing.T) {
	var trace []rec
	f := mustNew(t, KindCrossbar, Geometry{Cores: 2, Banks: 4, PortBW: 4}, &trace)
	f.PushRequest(Message[int]{Src: 0, Dst: 0, Occ: 1, Payload: 0}, 5, false)
	f.PushRequest(Message[int]{Src: 0, Dst: 1, Occ: 1, Payload: 1}, 5, false)
	for now := uint64(0); now < 12; now++ {
		f.Tick(now)
	}
	if len(trace) != 2 || trace[0].at != 6 || trace[1].at != 7 {
		t.Fatalf("single-source injections %v, want arrivals 6 then 7", trace)
	}
}

// TestMeshRouting checks XY hop counts, per-hop latency, and link
// contention on a 4x2 grid.
func TestMeshRouting(t *testing.T) {
	var trace []rec
	g := Geometry{Cores: 8, Banks: 4, MeshW: 4, MeshH: 2, LinkLat: 3, PortBW: 1}
	f := mustNew(t, KindMesh, g, &trace)
	// Core 1 at node 1 (1,0) -> bank 3 at node 3*8/4=6, i.e. (2,1):
	// route (1,0)->(2,0)->(2,1): 2 hops.
	f.PushRequest(Message[int]{Src: 1, Dst: 3, Occ: 4, Payload: 0}, 10, false)
	for now := uint64(0); now < 40; now++ {
		f.Tick(now)
	}
	// launch at 10, head arrives after 2*3 cycles, tail after +4.
	if want := []rec{{true, 3, 0, 20}}; !reflect.DeepEqual(trace, want) {
		t.Fatalf("mesh arrival %v, want %v", trace, want)
	}

	// Contention: two cores share the (1,0)->(2,0) link. Ports launch in
	// index order, so core 0 goes first.
	trace = trace[:0]
	f2 := mustNew(t, KindMesh, g, &trace)
	f2.PushRequest(Message[int]{Src: 1, Dst: 3, Occ: 4, Payload: 0}, 10, false)
	// Core 0 at (0,0) -> bank 3: route crosses (0,0)->(1,0)->(2,0)->(2,1).
	f2.PushRequest(Message[int]{Src: 0, Dst: 3, Occ: 4, Payload: 1}, 10, false)
	for now := uint64(0); now < 60; now++ {
		f2.Tick(now)
	}
	if len(trace) != 2 {
		t.Fatalf("granted %d of 2", len(trace))
	}
	// Core 0 launches at 10 over 3 hops: head at (2,1) at 10+3*3=19, tail
	// +4: arrival 23; it reserves (1,0)->(2,0) for [13,17).
	// Core 1's first link is that reserved link, so it cannot launch until
	// 17; 2 hops + tail: 17+3+3+4 = 27.
	for _, r := range trace {
		if r.id == 1 && r.at != 23 {
			t.Fatalf("first-launched message arrived at %d, want 23: %v", r.at, trace)
		}
		if r.id == 0 && r.at != 27 {
			t.Fatalf("contended message arrived at %d, want 27: %v", r.at, trace)
		}
	}
	var waits uint64
	f2.StatsInto(60, func(name string, v uint64) {
		if name == "mesh.link_wait_cycles" {
			waits = v
		}
	})
	if waits == 0 {
		t.Fatal("link contention not accounted in mesh.link_wait_cycles")
	}
}

// TestFabricFIFOAndReorder: per-source ordering toward one destination
// holds on every fabric, and the reorder flag jumps the queue.
func TestFabricFIFOAndReorder(t *testing.T) {
	g := Geometry{Cores: 4, Banks: 2, MeshW: 2, MeshH: 2, LinkLat: 1, PortBW: 1}
	for _, kind := range Kinds {
		var trace []rec
		f := mustNew(t, kind, g, &trace)
		for i := 0; i < 4; i++ {
			f.PushRequest(Message[int]{Src: 0, Dst: 1, Occ: 2, Payload: i}, 1, false)
		}
		for now := uint64(0); now < 40; now++ {
			f.Tick(now)
		}
		for i, r := range trace {
			if r.id != i {
				t.Fatalf("%v: FIFO order broken: %v", kind, trace)
			}
		}
		if len(trace) != 4 {
			t.Fatalf("%v: granted %d of 4", kind, len(trace))
		}

		var trace2 []rec
		f2 := mustNew(t, kind, g, &trace2)
		f2.PushRequest(Message[int]{Src: 0, Dst: 1, Occ: 1, Payload: 0}, 1, false)
		f2.PushRequest(Message[int]{Src: 0, Dst: 1, Occ: 1, Payload: 1}, 1, false)
		f2.PushRequest(Message[int]{Src: 0, Dst: 1, Occ: 1, Payload: 2}, 1, true) // ahead of 1
		for now := uint64(0); now < 40; now++ {
			f2.Tick(now)
		}
		var ids []int
		for _, r := range trace2 {
			ids = append(ids, r.id)
		}
		if want := []int{0, 2, 1}; !reflect.DeepEqual(ids, want) {
			t.Fatalf("%v: reorder produced %v, want %v", kind, ids, want)
		}
	}
}

// TestFabricNextEventExact drives a staggered workload through each fabric
// twice — ticking every cycle, and jumping between NextEvent cycles — and
// requires identical delivery traces and identical StatsInto counters at
// every reading cycle. This is the contract the quiescent fast path depends
// on. The busy-cycle counters are also checked against a count taken from
// the trace itself — a channel granted at g with occupancy o is busy at
// cycles g+1 .. g+o-1 — at reading cycles chosen to cut transfers in
// flight, which is where crediting at grant time and clipping on read can
// go wrong.
func TestFabricNextEventExact(t *testing.T) {
	g := Geometry{Cores: 8, Banks: 4, MeshW: 4, MeshH: 2, LinkLat: 2, PortBW: 1}
	occ := map[int]uint64{} // payload id -> occupancy
	load := func(f Fabric[int]) {
		id := 0
		for c := 0; c < 8; c++ {
			for i := 0; i < 3; i++ {
				occ[id] = uint64(1 + (c+i)%4)
				f.PushRequest(Message[int]{Src: c, Dst: (c + i) % 4, Occ: occ[id], Payload: id}, uint64(2+7*i+c), false)
				id++
			}
		}
		for b := 0; b < 4; b++ {
			for i := 0; i < 3; i++ {
				occ[id] = uint64(1 + i%4)
				f.PushResponse(Message[int]{Src: b, Dst: (b*3 + i) % 8, Occ: occ[id], Payload: id}, uint64(3+5*i+b))
				id++
			}
		}
	}
	const horizon = 500
	ends := []uint64{0, 3, 5, 9, 12, 14, 17, 20, 23, 27, 30, 34, 41, 48, 57, horizon}
	stats := func(f Fabric[int], end uint64) map[string]uint64 {
		out := map[string]uint64{}
		f.StatsInto(end, func(name string, v uint64) { out[name] = v })
		return out
	}
	for _, kind := range Kinds {
		var dense []rec
		fd := mustNew(t, kind, g, &dense)
		load(fd)
		denseStats := map[uint64]map[string]uint64{}
		for now := uint64(0); now <= horizon; now++ {
			denseStats[now] = stats(fd, now)
			fd.Tick(now)
		}
		if !fd.Quiet() {
			t.Fatalf("%v: not quiet after dense run", kind)
		}

		var sparse []rec
		fs := mustNew(t, kind, g, &sparse)
		load(fs)
		sparseStats := map[uint64]map[string]uint64{}
		now, next := uint64(0), 0
		for steps := 0; steps < 1000; steps++ {
			e, ok := fs.NextEvent(now)
			if !ok {
				e = horizon
			}
			// No grant falls in [now, e): every reading cycle passed on
			// the way must see the counters the dense run saw there.
			for ; next < len(ends) && ends[next] <= e; next++ {
				sparseStats[ends[next]] = stats(fs, ends[next])
			}
			if !ok {
				break
			}
			now = e
			fs.Tick(now)
			now++
		}
		if !fs.Quiet() {
			t.Fatalf("%v: not quiet after event-driven run", kind)
		}
		if !reflect.DeepEqual(dense, sparse) {
			t.Fatalf("%v: event-driven trace diverges from per-cycle trace\ndense:  %v\nsparse: %v", kind, dense, sparse)
		}
		if next != len(ends) {
			t.Fatalf("%v: event-driven run read %d of %d reading cycles", kind, next, len(ends))
		}

		// The trace's own busy count, and whether some reading cycle cut a
		// multi-cycle transfer.
		cut := false
		busyAt := func(end uint64, req bool) (n uint64) {
			for _, r := range dense {
				if r.req != req {
					continue
				}
				o, g := occ[r.id], r.at-occ[r.id]
				if kind == KindOptical {
					g = r.at - 1 // one-cycle flight; Occ holds the modulator
				}
				if g < end {
					n += min(g+o, end) - g - 1
					cut = cut || (o > 1 && end < g+o)
				}
			}
			return n
		}
		for _, end := range ends {
			if !reflect.DeepEqual(denseStats[end], sparseStats[end]) {
				t.Errorf("%v: counters at cycle %d diverge\ndense:  %v\nsparse: %v", kind, end, denseStats[end], sparseStats[end])
			}
			if kind == KindMesh {
				continue // the mesh accounts link waits, not busy cycles
			}
			for _, half := range []struct {
				req  bool
				name string
			}{{true, "request"}, {false, "response"}} {
				key := kind.String() + "." + half.name + "_busy_cycles"
				if got, want := denseStats[end][key], busyAt(end, half.req); got != want {
					t.Errorf("%v: %s at cycle %d = %d, trace says %d", kind, key, end, got, want)
				}
			}
		}
		if kind != KindMesh && !cut {
			t.Errorf("%v: no reading cycle cut a multi-cycle transfer; move the reading cycles", kind)
		}
	}
}

// TestFabricLinkNames pins the attribution-name shapes fault reports use.
func TestFabricLinkNames(t *testing.T) {
	g := Geometry{Cores: 8, Banks: 4, MeshW: 4, MeshH: 2, LinkLat: 1, PortBW: 1}
	var trace []rec
	checks := []struct {
		kind     Kind
		req, rsp string
	}{
		{KindBus, "bus", "resp"},
		{KindCrossbar, "xbar.c5-b3", "xbar.b3-c5"},
		{KindMesh, "mesh.c5(1,1)->b3(2,1)", "mesh.b3(2,1)->c5(1,1)"},
		{KindOptical, "optical.c5-b3", "optical.b3-c5"},
	}
	for _, c := range checks {
		f := mustNew(t, c.kind, g, &trace)
		if got := f.ReqLinkName(5, 3); got != c.req {
			t.Errorf("%v: ReqLinkName = %q, want %q", c.kind, got, c.req)
		}
		if got := f.RespLinkName(3, 5); got != c.rsp {
			t.Errorf("%v: RespLinkName = %q, want %q", c.kind, got, c.rsp)
		}
	}
}

// TestStatsPrefixes: every fabric emits its counters under its own prefix.
func TestStatsPrefixes(t *testing.T) {
	g := Geometry{Cores: 4, Banks: 2, MeshW: 2, MeshH: 2, LinkLat: 1, PortBW: 1}
	want := map[Kind]string{KindBus: "bus.", KindCrossbar: "xbar.", KindMesh: "mesh.", KindOptical: "optical."}
	for _, kind := range Kinds {
		if want[kind] == "" {
			t.Fatalf("%v: no prefix pinned", kind)
		}
		var trace []rec
		f := mustNew(t, kind, g, &trace)
		f.PushRequest(Message[int]{Src: 0, Dst: 1, Occ: 1}, 1, false)
		for now := uint64(0); now < 10; now++ {
			f.Tick(now)
		}
		n := 0
		f.StatsInto(10, func(name string, v uint64) {
			n++
			if !strings.HasPrefix(name, want[kind]) {
				t.Errorf("%v: counter %q lacks prefix %q", kind, name, want[kind])
			}
		})
		if n == 0 {
			t.Errorf("%v: no counters emitted", kind)
		}
		_ = fmt.Sprintf("%v", f.Kind()) // String coverage
	}
}
