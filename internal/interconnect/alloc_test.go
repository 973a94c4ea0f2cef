package interconnect

import "testing"

// TestSourceQueueSteadyStateNoAlloc: a source port that never drains (it
// holds at least one message across every push/grant cycle, with reorder
// pushes mixed in) reuses its queue's buffer, on every fabric and in both
// directions.
func TestSourceQueueSteadyStateNoAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	g := Geometry{Cores: 8, Banks: 4, MeshW: 4, MeshH: 2, LinkLat: 1, PortBW: 1}
	for _, kind := range Kinds {
		t.Run(kind.String(), func(t *testing.T) {
			var delivered int
			count := func(int, int, uint64) { delivered++ }
			f, err := New(kind, g, Delivery[int]{Req: count, Resp: count})
			if err != nil {
				t.Fatal(err)
			}
			var now uint64
			pushed, drained := 0, false
			cycle := func() {
				f.PushRequest(Message[int]{Src: 0, Dst: 1, Occ: 1, Payload: pushed}, now, pushed%2 == 1)
				f.PushResponse(Message[int]{Src: 1, Dst: 0, Occ: 1, Payload: pushed}, now)
				pushed += 2
				f.Tick(now)
				now++
				drained = drained || f.Quiet()
			}
			// One message in each direction stays queued behind the one
			// each cycle grants.
			f.PushRequest(Message[int]{Src: 0, Dst: 1, Occ: 1}, now, false)
			f.PushResponse(Message[int]{Src: 1, Dst: 0, Occ: 1}, now)
			pushed += 2
			for i := 0; i < 1000; i++ { // warm-up: the queues reach their peak length
				cycle()
			}
			allocs := testing.AllocsPerRun(10000, cycle)
			if drained {
				t.Fatal("the source queues drained; the guard needs a queue that never empties")
			}
			if backlog := pushed - delivered; backlog > 8 {
				t.Fatalf("backlog grew to %d messages; the fabric does not keep up", backlog)
			}
			if allocs != 0 {
				t.Fatalf("steady-state push/grant allocates %.2f times per cycle", allocs)
			}
		})
	}
}

// TestStatsIntoNoAlloc: reading a fabric's counters allocates nothing, on
// every fabric: the counter names are built once, not per read.
func TestStatsIntoNoAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	g := Geometry{Cores: 8, Banks: 4, MeshW: 4, MeshH: 2, LinkLat: 1, PortBW: 1}
	var sum int
	set := func(name string, v uint64) { sum += len(name) + int(v) }
	for _, kind := range Kinds {
		drop := func(int, int, uint64) {}
		f, err := New(kind, g, Delivery[int]{Req: drop, Resp: drop})
		if err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(100, func() { f.StatsInto(0, set) }); allocs != 0 {
			t.Errorf("%v: StatsInto allocates %.0f times per read", kind, allocs)
		}
	}
}
