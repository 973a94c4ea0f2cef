package hbcheck

import (
	"strings"
	"testing"

	"repro/internal/hwnet"
	"repro/internal/mem"
)

const syncBase = 0x0F00_0000

func newChecker(threads int) *Checker {
	return New(Config{SyncBase: syncBase, KeepGoing: true}, threads)
}

// The event stream a machine would feed the checker, one helper per kind.

func store(c *Checker, now uint64, core int, pc, addr uint64) {
	c.OnEvent(mem.Event{Kind: mem.EvStore, Now: now, Core: core, PC: pc, Addr: addr, Size: 8})
}

func load(c *Checker, now uint64, core int, pc, addr uint64) {
	c.OnEvent(mem.Event{Kind: mem.EvLoad, Now: now, Core: core, PC: pc, Addr: addr, Size: 8})
}

// barKey is a two-thread filter barrier's key: its thread 0 arrival line.
const barKey = 0x0F10_0000

func arrive(c *Checker, now uint64, thread int) {
	c.OnEvent(mem.Event{Kind: mem.EvBarrierArrive, Now: now, Core: thread, Key: barKey, N: 2})
}

func open(c *Checker, now uint64) {
	c.OnEvent(mem.Event{Kind: mem.EvBarrierOpen, Now: now, Core: -1, Key: barKey, N: 2})
}

func TestUnsyncedStoreStoreRaces(t *testing.T) {
	c := newChecker(2)
	store(c, 10, 0, 0x10000, 0x1000)
	store(c, 20, 1, 0x10004, 0x1000)
	if len(c.Races()) == 0 {
		t.Fatal("unsynchronized store/store pair not reported")
	}
	r := c.Races()[0]
	if r.Thread != 1 || r.PrevThread != 0 || !r.Write || !r.PrevWrite {
		t.Fatalf("wrong attribution: %+v", r)
	}
	if got := c.Describe(r); !strings.Contains(got, "core1 store at pc 0x10") {
		t.Fatalf("Describe lost the access kind: %s", got)
	}
}

func TestUnsyncedStoreLoadRaces(t *testing.T) {
	c := newChecker(2)
	store(c, 10, 0, 0x10000, 0x2000)
	load(c, 20, 1, 0x10004, 0x2000)
	if len(c.Races()) == 0 {
		t.Fatal("store/load pair not reported")
	}
	// Load-then-store in the other order must race too.
	c2 := newChecker(2)
	load(c2, 10, 1, 0x10004, 0x2000)
	store(c2, 20, 0, 0x10000, 0x2000)
	if len(c2.Races()) == 0 {
		t.Fatal("load/store pair not reported")
	}
}

func TestSameThreadNeverRaces(t *testing.T) {
	c := newChecker(2)
	store(c, 10, 0, 0x10000, 0x3000)
	load(c, 20, 0, 0x10004, 0x3000)
	store(c, 30, 0, 0x10008, 0x3000)
	if len(c.Races()) != 0 {
		t.Fatalf("same-thread accesses reported as races: %v", c.Races())
	}
}

func TestDisjointBytesDoNotRace(t *testing.T) {
	c := newChecker(2)
	store(c, 10, 0, 0x10000, 0x4000)
	store(c, 20, 1, 0x10004, 0x4008)
	if len(c.Races()) != 0 {
		t.Fatalf("disjoint stores reported as races: %v", c.Races())
	}
}

// TestFilterBarrierOrders drives the filter-barrier release/acquire rules:
// a store before the barrier does not race a load after it.
func TestFilterBarrierOrders(t *testing.T) {
	c := newChecker(2)
	store(c, 10, 0, 0x10000, 0x5000)
	arrive(c, 20, 0)
	arrive(c, 21, 1)
	open(c, 21)
	load(c, 30, 1, 0x10004, 0x5000)
	if len(c.Races()) != 0 {
		t.Fatalf("barrier-ordered accesses reported as races: %v", c.Races())
	}
	// A second round: the accumulator must have reset, yet ordering still
	// holds transitively through the new episode.
	store(c, 40, 1, 0x10008, 0x5000)
	arrive(c, 50, 0)
	arrive(c, 51, 1)
	open(c, 51)
	store(c, 60, 0, 0x1000c, 0x5000)
	if len(c.Races()) != 0 {
		t.Fatalf("second-episode ordering lost: %v", c.Races())
	}
}

// TestFilterBarrierDoesNotOrderLaterWork: accesses after the open on two
// threads are still concurrent.
func TestFilterBarrierDoesNotOrderLaterWork(t *testing.T) {
	c := newChecker(2)
	arrive(c, 20, 0)
	arrive(c, 21, 1)
	open(c, 21)
	store(c, 30, 0, 0x10000, 0x6000)
	store(c, 40, 1, 0x10004, 0x6000)
	if len(c.Races()) == 0 {
		t.Fatal("post-barrier concurrent stores not reported")
	}
}

// TestHWBarEpisodes: a barrier network, with the checker as its probe,
// orders cross-thread accesses, and a fast thread arriving at the next
// episode before a slow thread's release is not ordered into the previous
// opening.
func TestHWBarEpisodes(t *testing.T) {
	c := newChecker(2)
	n := hwnet.New()
	n.SetProbe(c)
	n.Register(3, 2, 2)
	store(c, 10, 0, 0x10000, 0x7000)
	n.Arrive(20, 0, 3)
	n.Arrive(21, 1, 3) // opens; both released at cycle 25
	if !n.TryRelease(25, 0, 3) {
		t.Fatal("thread 0 not released")
	}
	// Thread 0 races ahead and arrives at the next episode before thread 1
	// has released the first.
	store(c, 26, 0, 0x10004, 0x7008)
	n.Arrive(27, 0, 3)
	if !n.TryRelease(28, 1, 3) {
		t.Fatal("thread 1 not released")
	}
	load(c, 30, 1, 0x10008, 0x7000)
	if len(c.Races()) != 0 {
		t.Fatalf("hwbar-ordered accesses reported as races: %v", c.Races())
	}
	// Thread 1 acquired episode 1's opening only: thread 0's post-release
	// store at 0x7008 is NOT ordered before it.
	store(c, 40, 1, 0x1000c, 0x7008)
	if len(c.Races()) == 0 {
		t.Fatal("episode leak: next-episode arrival ordered into the previous episode's release")
	}
}

// TestSyncCellReleaseAcquire: a software-barrier flag store/load pair in
// the sync region transfers ordering and is itself exempt from checking.
func TestSyncCellReleaseAcquire(t *testing.T) {
	c := newChecker(2)
	store(c, 10, 0, 0x10000, 0x8000)
	store(c, 20, 0, 0x10004, syncBase+0x40) // release flag
	load(c, 30, 1, 0x10008, syncBase+0x40)  // acquire flag
	load(c, 40, 1, 0x1000c, 0x8000)
	if len(c.Races()) != 0 {
		t.Fatalf("sync-cell-ordered accesses reported as races: %v", c.Races())
	}
	// Without the acquiring load, the same data access races.
	c2 := newChecker(2)
	store(c2, 10, 0, 0x10000, 0x8000)
	store(c2, 20, 0, 0x10004, syncBase+0x40)
	load(c2, 40, 1, 0x1000c, 0x8000)
	if len(c2.Races()) == 0 {
		t.Fatal("unacquired access not reported")
	}
}

func TestDedupAndCap(t *testing.T) {
	c := New(Config{SyncBase: syncBase, KeepGoing: true, MaxRaces: 2}, 2)
	for i := 0; i < 10; i++ {
		// Same pc pair every time: one recorded race, nine dropped.
		store(c, uint64(10+i), 0, 0x10000, 0x9000+uint64(16*i))
		store(c, uint64(20+i), 1, 0x10004, 0x9000+uint64(16*i))
	}
	if got := len(c.Races()); got != 1 {
		t.Fatalf("dedup failed: %d races for one static pair", got)
	}
	// Distinct pc pairs: capped at MaxRaces.
	for i := 0; i < 10; i++ {
		store(c, uint64(100+i), 0, 0x20000+uint64(8*i), 0xa000+uint64(16*i))
		store(c, uint64(200+i), 1, 0x30000+uint64(8*i), 0xa000+uint64(16*i))
	}
	if got := len(c.Races()); got != 2 {
		t.Fatalf("cap failed: %d races recorded with MaxRaces=2", got)
	}
	if c.Dropped == 0 {
		t.Fatal("dropped counter not bumped")
	}
}

// TestWriteSubsumesReads: after an ordered write, earlier reads no longer
// conflict with later writes (the FastTrack read-reset rule).
func TestWriteSubsumesReads(t *testing.T) {
	c := newChecker(2)
	load(c, 10, 1, 0x10000, 0xb000)
	arrive(c, 20, 0)
	arrive(c, 21, 1)
	open(c, 21)
	store(c, 30, 0, 0x10004, 0xb000)
	if len(c.Races()) != 0 {
		t.Fatalf("ordered read/write pair reported: %v", c.Races())
	}
}
