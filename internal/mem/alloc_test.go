package mem

import "testing"

// TestCacheInvalSteadyStateNoAlloc: on a warmed system, issuing a DCBI and
// running until its acknowledgement allocates nothing. A barrier arrival is
// a DCBI, so a core parked on a filter issues one per episode.
func TestCacheInvalSteadyStateNoAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	s := NewSystem(DefaultConfig(2))
	const addr = 0x10000
	var now uint64
	acked := true
	inval := func() {
		id := s.IssueCacheInval(now, 0, addr, false)
		for end := now + 3000; s.InvalPending(0, id) && now < end; now++ {
			s.Tick(now)
		}
		acked = acked && !s.InvalPending(0, id)
	}
	for i := 0; i < 10; i++ { // warm-up: queues and the token slice reach their peak
		inval()
	}
	allocs := testing.AllocsPerRun(1000, inval)
	if !acked {
		t.Fatal("an invalidation was never acknowledged")
	}
	if allocs != 0 {
		t.Fatalf("steady-state issue-to-ack allocates %.2f times per invalidation", allocs)
	}
}
