package mem

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/sim"
)

// refCache is a trivial reference model of a set-associative LRU cache:
// maps from line address to state, LRU stamp and way, with no blocks and
// no packing. A new line takes the lowest way its set has free, or the
// evicted line's way, so Snapshot order is (set, way).
type refCache struct {
	sets      int
	ways      int
	lineBytes int
	lines     map[uint64]LineState
	order     map[uint64]uint64 // LRU stamp
	way       map[uint64]int
	clock     uint64
}

func newRefCache(total, ways, lineBytes int) *refCache {
	return &refCache{
		sets:      total / (ways * lineBytes),
		ways:      ways,
		lineBytes: lineBytes,
		lines:     make(map[uint64]LineState),
		order:     make(map[uint64]uint64),
		way:       make(map[uint64]int),
	}
}

func (r *refCache) line(addr uint64) uint64 { return addr &^ uint64(r.lineBytes-1) }
func (r *refCache) set(addr uint64) uint64 {
	return (r.line(addr) / uint64(r.lineBytes)) % uint64(r.sets)
}

func (r *refCache) lookup(addr uint64) LineState {
	la := r.line(addr)
	st, ok := r.lines[la]
	if !ok {
		return Invalid
	}
	r.clock++
	r.order[la] = r.clock
	return st
}

func (r *refCache) peek(addr uint64) LineState {
	if st, ok := r.lines[r.line(addr)]; ok {
		return st
	}
	return Invalid
}

func (r *refCache) insert(addr uint64, st LineState) (victim uint64, hadVictim bool) {
	la := r.line(addr)
	r.clock++
	if _, ok := r.lines[la]; ok {
		r.lines[la] = st
		r.order[la] = r.clock
		return 0, false
	}
	// Count occupancy of the set.
	var members []uint64
	used := make(map[int]bool)
	for a := range r.lines {
		if r.set(a) == r.set(la) {
			members = append(members, a)
			used[r.way[a]] = true
		}
	}
	w := 0
	for used[w] {
		w++
	}
	if len(members) >= r.ways {
		// Evict LRU member.
		lru := members[0]
		for _, a := range members[1:] {
			if r.order[a] < r.order[lru] {
				lru = a
			}
		}
		w = r.way[lru]
		r.remove(lru)
		victim, hadVictim = lru, true
	}
	r.lines[la] = st
	r.order[la] = r.clock
	r.way[la] = w
	return victim, hadVictim
}

func (r *refCache) remove(la uint64) {
	delete(r.lines, la)
	delete(r.order, la)
	delete(r.way, la)
}

func (r *refCache) setState(addr uint64, st LineState) {
	la := r.line(addr)
	if _, ok := r.lines[la]; !ok {
		return
	}
	if st == Invalid {
		r.remove(la)
	} else {
		r.lines[la] = st
	}
}

func (r *refCache) invalidate(addr uint64) bool {
	la := r.line(addr)
	_, ok := r.lines[la]
	r.remove(la)
	return ok
}

func (r *refCache) snapshot() []CacheLine {
	var out []CacheLine
	for a, st := range r.lines {
		out = append(out, CacheLine{Addr: a, State: st})
	}
	sort.Slice(out, func(i, j int) bool {
		si, sj := r.set(out[i].Addr), r.set(out[j].Addr)
		if si != sj {
			return si < sj
		}
		return r.way[out[i].Addr] < r.way[out[j].Addr]
	})
	return out
}

// TestCachePropertyVsReference drives the real tag array and the reference
// model with an identical random operation stream and requires identical
// observable behaviour, over geometries from one set to the L3's 32,768:
// 1/2/4/8 ways, fewer sets than a block, exactly one block, and hundreds
// of blocks of which the stream touches a scattered few.
func TestCachePropertyVsReference(t *testing.T) {
	for _, g := range []struct{ sets, ways int }{
		{8, 2}, {1, 1}, {4, 4}, {16, 8}, {blockSets, 2}, {128, 1}, {2048, 4}, {32768, 2},
	} {
		t.Run(fmt.Sprintf("%dx%d", g.sets, g.ways), func(t *testing.T) {
			testCacheVsReference(t, g.sets, g.ways)
		})
	}
}

func testCacheVsReference(t *testing.T, sets, ways int) {
	const lineBytes = 64
	rng := sim.NewRand(12345 + uint64(sets*ways))
	total := sets * ways * lineBytes
	c := NewCache("prop", total, ways, lineBytes)
	r := newRefCache(total, ways, lineBytes)

	// Up to 16 scattered sets, each with 3x as many candidate lines as it
	// has ways, so sets fill, evict and share blocks or sit in distant ones.
	var used []int
	for i := 0; i < min(sets, 16); i++ {
		used = append(used, rng.Intn(sets))
	}
	addrs := make([]uint64, 40)
	for i := range addrs {
		set, tag := used[rng.Intn(len(used))], rng.Intn(3*ways)
		addrs[i] = uint64(tag*sets+set)*lineBytes + uint64(rng.Intn(lineBytes))
	}
	state := func() LineState { return LineState(1 + rng.Intn(2)) } // Shared or Modified
	for step := 0; step < 20000; step++ {
		a := addrs[rng.Intn(len(addrs))]
		switch rng.Intn(5) {
		case 0: // lookup
			if got, want := c.Lookup(a), r.lookup(a); got != want {
				t.Fatalf("step %d: Lookup(%#x) = %v, want %v", step, a, got, want)
			}
		case 1: // insert
			st := state()
			v := c.Insert(a, st)
			victim, had := r.insert(a, st)
			if v.Valid != had {
				t.Fatalf("step %d: Insert(%#x) victim presence mismatch (%v vs %v)", step, a, v.Valid, had)
			}
			if had && v.Addr != victim {
				t.Fatalf("step %d: Insert(%#x) evicted %#x, reference evicted %#x", step, a, v.Addr, victim)
			}
		case 2: // invalidate
			p, _ := c.Invalidate(a)
			if want := r.invalidate(a); p != want {
				t.Fatalf("step %d: Invalidate(%#x) = %v, want %v", step, a, p, want)
			}
		case 3: // peek (no LRU side effect in either model)
			if got, want := c.Peek(a), r.peek(a); got != want {
				t.Fatalf("step %d: Peek(%#x) = %v, want %v", step, a, got, want)
			}
		case 4: // set state, Invalid included; keeps the LRU stamp
			st := LineState(rng.Intn(3))
			c.SetState(a, st)
			r.setState(a, st)
		}
		if step%97 == 0 || step == 19999 {
			got, want := c.Snapshot(), r.snapshot()
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("step %d: Snapshot\n got %v\nwant %v", step, got, want)
			}
		}
	}
}
