package hwnet

import (
	"math"
	"testing"

	"repro/internal/mem"
)

func TestBarrierReleaseTiming(t *testing.T) {
	n := New()
	n.Register(0, 3, 2) // 2-cycle wires
	n.Arrive(10, 0, 0)  // effective at 12
	n.Arrive(11, 1, 0)  // effective at 13
	if n.TryRelease(100, 0, 0) {
		t.Fatal("released before all arrived")
	}
	n.Arrive(20, 2, 0) // effective at 22 -> release wired back at 24
	for _, c := range []int{0, 1, 2} {
		if n.TryRelease(23, c, 0) {
			t.Fatalf("core %d released before the wire latency elapsed", c)
		}
		if !n.TryRelease(24, c, 0) {
			t.Fatalf("core %d not released at cycle 24", c)
		}
		if n.TryRelease(25, c, 0) {
			t.Fatalf("core %d release not consumed", c)
		}
	}
	if n.Releases != 1 || n.Arrivals != 3 {
		t.Fatalf("stats: %d releases, %d arrivals", n.Releases, n.Arrivals)
	}
}

func TestBarrierReuse(t *testing.T) {
	n := New()
	n.Register(1, 2, 2)
	for episode := 0; episode < 3; episode++ {
		base := uint64(episode * 100)
		n.Arrive(base, 0, 1)
		n.Arrive(base+1, 1, 1)
		if !n.TryRelease(base+50, 0, 1) || !n.TryRelease(base+50, 1, 1) {
			t.Fatalf("episode %d did not release", episode)
		}
	}
	if n.Releases != 3 {
		t.Fatalf("releases = %d", n.Releases)
	}
}

func TestIndependentBarriers(t *testing.T) {
	n := New()
	n.Register(0, 2, 2)
	n.Register(1, 2, 2)
	n.Arrive(0, 0, 0)
	n.Arrive(0, 0, 1)
	n.Arrive(0, 1, 1)
	if n.TryRelease(50, 0, 0) {
		t.Fatal("barrier 0 released by barrier 1 arrivals")
	}
	if !n.TryRelease(50, 0, 1) {
		t.Fatal("barrier 1 not released")
	}
}

func TestUnregisteredPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unregistered barrier")
		}
	}()
	New().Arrive(0, 0, 9)
}

func TestRegisterValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero threads")
		}
	}()
	New().Register(0, 0, 2)
}

// TestRegisterRejectsLiveID: a second registration of an id, at any
// latency, panics like a bad thread count does.
func TestRegisterRejectsLiveID(t *testing.T) {
	n := New()
	n.Register(0, 2, 2)
	defer func() {
		if recover() == nil {
			t.Error("a second registration of id 0 did not panic")
		}
	}()
	n.Register(0, 2, 6)
}

// TestTreeBarrierLatencyScalesWithDepth: a release lands twice the one-way
// latency after the last arrival, whether that latency is the flat wires'
// or a reduction tree's depth times its hop cost.
func TestTreeBarrierLatencyScalesWithDepth(t *testing.T) {
	n := New()
	n.Register(0, 16, 2)  // flat wired-AND
	n.Register(1, 16, 12) // binary tree, 3 cycles per hop: depth 4
	n.Register(2, 16, 6)  // quad tree: depth 2

	release := func(id int) uint64 {
		for c := 0; c < 16; c++ {
			n.Arrive(100, c, id)
		}
		at := uint64(0)
		for ; at < 1000; at++ {
			if n.TryRelease(at, 0, id) {
				break
			}
		}
		for c := 1; c < 16; c++ {
			if !n.TryRelease(at, c, id) {
				t.Fatalf("id %d: core %d not released with core 0", id, c)
			}
		}
		return at - 100
	}
	flat := release(0)
	bin := release(1)
	quad := release(2)
	if flat != 4 { // 2 up + 2 down
		t.Fatalf("flat latency %d, want 4", flat)
	}
	if bin != 24 { // 4 levels x 3 cycles, both directions
		t.Fatalf("binary tree latency %d, want 24", bin)
	}
	if quad != 12 { // 2 levels x 3 cycles, both directions
		t.Fatalf("quad tree latency %d, want 12", quad)
	}
}

// TestReleaseRecordsWakeOnce: a waiter is Parked until its release is
// visible; NextRelease announces the cycle before anyone polls, Due reports
// each release once, at that cycle, and a consumed release is gone. A
// zero-latency barrier releases at its last arrival's cycle, which no
// announcement can precede, so its waiters are never Parked.
func TestReleaseRecordsWakeOnce(t *testing.T) {
	n := New()
	n.Register(0, 2, 2)
	if n.NextRelease() != math.MaxUint64 {
		t.Fatalf("NextRelease %d with nothing pending", n.NextRelease())
	}
	n.Arrive(10, 0, 0)
	if !n.Parked(11, 0, 0) || n.NextRelease() != math.MaxUint64 {
		t.Fatal("a lone arrival is not parked, or announced a release")
	}
	n.Arrive(20, 1, 0) // effective at 22, released at 24
	if n.NextRelease() != 24 {
		t.Fatalf("NextRelease = %d, want 24", n.NextRelease())
	}
	if !n.Parked(23, 0, 0) || n.Parked(24, 0, 0) {
		t.Fatal("Parked does not end at the release cycle")
	}
	var woken []int
	n.Due(23, func(c int) { woken = append(woken, c) })
	if len(woken) != 0 || n.NextRelease() != 24 {
		t.Fatalf("Due(23) reported %v, NextRelease %d", woken, n.NextRelease())
	}
	n.Due(24, func(c int) { woken = append(woken, c) })
	n.Due(25, func(c int) { woken = append(woken, c) })
	if len(woken) != 2 || woken[0] == woken[1] || n.NextRelease() != math.MaxUint64 {
		t.Fatalf("Due reported %v, NextRelease %d; want each core once", woken, n.NextRelease())
	}
	if !n.TryRelease(24, 1, 0) || n.TryRelease(24, 1, 0) {
		t.Fatal("the release was not consumed exactly once")
	}
	if !n.Parked(30, 1, 0) {
		t.Fatal("a consumed release still shows")
	}

	z := New()
	z.Register(0, 2, 0)
	z.Arrive(5, 0, 0)
	if z.Parked(6, 0, 0) {
		t.Fatal("a zero-latency barrier's waiter is parked")
	}
}

// recorder is a probe that keeps every event.
type recorder []mem.Event

func (r *recorder) OnEvent(e mem.Event) { *r = append(*r, e) }

// TestProbeSeesArrivalsAndOpenings: like a barrier filter, the device
// reports each counted arrival and then, from the completing one, one
// opening keyed by the barrier id, whatever the barrier's latency, and once
// per episode when episodes run back to back.
func TestProbeSeesArrivalsAndOpenings(t *testing.T) {
	for _, c := range []struct {
		name     string
		lat      uint64
		episodes int
	}{
		{"flat", 2, 1},
		{"tree", 6, 1},
		{"zero-latency", 0, 1},
		{"back-to-back", 2, 3},
	} {
		var got recorder
		n := New()
		n.SetProbe(&got)
		n.Register(5, 3, c.lat)
		var want []mem.Event
		now := uint64(10)
		for ep := 0; ep < c.episodes; ep++ {
			for core := 0; core < 3; core++ {
				now++
				n.Arrive(now, core, 5)
				want = append(want, mem.Event{Kind: mem.EvBarrierArrive, Now: now, Core: core, Key: 5, N: 3})
			}
			want = append(want, mem.Event{Kind: mem.EvBarrierOpen, Now: now, Core: -1, Key: 5, N: 3})
			for core := 0; core < 3; core++ {
				if !n.TryRelease(now+2*c.lat, core, 5) {
					t.Fatalf("%s: episode %d: core %d not released", c.name, ep, core)
				}
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d events, want %d: %+v", c.name, len(got), len(want), got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: event %d is %+v, want %+v", c.name, i, got[i], want[i])
			}
		}
		if n.Arrivals != uint64(3*c.episodes) || n.Releases != uint64(c.episodes) {
			t.Errorf("%s: %d arrivals, %d releases", c.name, n.Arrivals, n.Releases)
		}
	}
}
