package mem

import (
	"fmt"
	"testing"
)

// fillShared brings addr into core's L1D in Shared state.
func fillShared(t *testing.T, s *System, core int, addr uint64) {
	t.Helper()
	if !s.L1D[core].StartMiss(0, addr, GetS, false) {
		t.Fatalf("core %d: StartMiss(%#x) failed", core, addr)
	}
	if !runSystem(s, 2000, func() bool { return s.L1D[core].Present(addr) }) {
		t.Fatalf("core %d: fill of %#x never arrived", core, addr)
	}
}

func dirOf(s *System, addr uint64) (DirEntry, bool) {
	return s.Banks[s.Cfg.BankOf(addr)].DirLookup(s.Cfg.LineAddr(addr))
}

func TestDirDropSharerLastSharer(t *testing.T) {
	s := NewSystem(DefaultConfig(2))
	const addr = 0x4000
	fillShared(t, s, 0, addr)
	e, ok := dirOf(s, addr)
	if !ok || !e.DSharers.Only(0) {
		t.Fatalf("directory after fill: ok=%v dSharers=%s, want bit 0", ok, e.DSharers)
	}
	// Silent clean eviction of the only sharer: the bit clears, and the
	// line simply has no cached copies left.
	s.L1D[0].localInval(addr)
	s.dirDropSharer(addr, 0, false)
	if e, _ := dirOf(s, addr); e.DSharers.Any() {
		t.Fatalf("dSharers=%s after dropping the last sharer, want 0", e.DSharers)
	}
	// The line is still fetchable afterwards.
	fillShared(t, s, 1, addr)
	if e, _ := dirOf(s, addr); !e.DSharers.Only(1) {
		t.Fatalf("dSharers=%s after refetch by core 1, want bit 1", e.DSharers)
	}
}

func TestDirDropSharerUnknownLine(t *testing.T) {
	s := NewSystem(DefaultConfig(2))
	// A drop for a line the directory has never seen must be a no-op, not
	// a panic (silent evictions can race an L2 replacement that already
	// discarded the entry).
	s.dirDropSharer(0x123440, 1, false)
	s.dirDropSharer(0x123440, 1, true)
	if _, ok := dirOf(s, 0x123440); ok {
		t.Fatal("drop on an unknown line materialized a directory entry")
	}
}

func TestDirDropSharerClearsOwner(t *testing.T) {
	s := NewSystem(DefaultConfig(2))
	const addr = 0x8000
	if !s.L1D[0].StartMiss(0, addr, GetM, false) {
		t.Fatal("StartMiss GetM failed")
	}
	if !runSystem(s, 2000, func() bool { return s.L1D[0].WriteState(addr) == Modified }) {
		t.Fatal("core 0 never got M")
	}
	if e, _ := dirOf(s, addr); e.Owner != 0 {
		t.Fatalf("owner=%d after GetM, want 0", e.Owner)
	}
	s.L1D[0].localInval(addr)
	s.dirDropSharer(addr, 0, false)
	e, _ := dirOf(s, addr)
	if e.Owner != -1 || e.DSharers.Any() {
		t.Fatalf("owner=%d dSharers=%s after dropping the owner, want -1/0", e.Owner, e.DSharers)
	}
}

func TestDirDropSharerICacheOnlyTouchesISharers(t *testing.T) {
	s := NewSystem(DefaultConfig(2))
	const addr = 0xC000
	if !s.L1I[0].StartMiss(0, addr, GetI, false) {
		t.Fatal("StartMiss GetI failed")
	}
	fillShared(t, s, 0, addr)
	if !runSystem(s, 2000, func() bool { return s.L1I[0].Present(addr) }) {
		t.Fatal("I-fill never arrived")
	}
	e, _ := dirOf(s, addr)
	if !e.ISharers.Only(0) || !e.DSharers.Only(0) {
		t.Fatalf("iSharers=%s dSharers=%s after dual fill, want 1/1", e.ISharers, e.DSharers)
	}
	// An I-side drop must leave the D bit, and vice versa.
	s.dirDropSharer(addr, 0, true)
	if e, _ := dirOf(s, addr); e.ISharers.Any() || !e.DSharers.Only(0) {
		t.Fatalf("iSharers=%s dSharers=%s after I-drop, want 0/1", e.ISharers, e.DSharers)
	}
	s.dirDropSharer(addr, 0, false)
	if e, _ := dirOf(s, addr); e.DSharers.Any() {
		t.Fatalf("dSharers=%s after D-drop, want 0", e.DSharers)
	}
}

func TestDirDropSharerNonSharerIsNoOp(t *testing.T) {
	s := NewSystem(DefaultConfig(2))
	const addr = 0x10000
	fillShared(t, s, 0, addr)
	// Dropping a core that never held the line must not disturb the bit of
	// the one that does.
	s.dirDropSharer(addr, 1, false)
	if e, _ := dirOf(s, addr); !e.DSharers.Only(0) {
		t.Fatalf("dSharers=%s after dropping a non-sharer, want bit 0 intact", e.DSharers)
	}
}

func TestIssueCacheInvalUnsharedLine(t *testing.T) {
	s := NewSystem(DefaultConfig(2))
	// DCBI of a line nobody caches: nothing to invalidate, but the token
	// must still be acknowledged cleanly (software relies on DCBI being
	// unconditional).
	errs := errAcks(s)
	id := s.IssueCacheInval(0, 0, 0x14000, false)
	if !runSystem(s, 3000, func() bool { return !s.InvalPending(0, id) }) {
		t.Fatal("inval of an unshared line never acknowledged")
	}
	if errs[id] {
		t.Fatal("unexpected error ack for an unshared line")
	}
}

func TestIssueCacheInvalIssuerIsOnlySharer(t *testing.T) {
	s := NewSystem(DefaultConfig(2))
	const addr = 0x18000
	fillShared(t, s, 0, addr)
	errs := errAcks(s)
	id := s.IssueCacheInval(100, 0, addr, false)
	// The issuer's own copy goes synchronously.
	if s.L1D[0].Present(addr) {
		t.Fatal("issuer's local copy survived its own DCBI")
	}
	if !runSystem(s, 3000, func() bool { return !s.InvalPending(0, id) }) {
		t.Fatal("inval never acknowledged")
	}
	if errs[id] {
		t.Fatal("unexpected error ack")
	}
	if e, _ := dirOf(s, addr); e.DSharers.Any() {
		t.Fatalf("dSharers=%s after the only sharer's DCBI, want 0", e.DSharers)
	}
}

func TestIssueCacheInvalDirtyLocalCopy(t *testing.T) {
	s := NewSystem(DefaultConfig(2))
	const addr = 0x1C000
	s.Mem.WriteUint64(addr, 42)
	if !s.L1D[0].StartMiss(0, addr, GetM, false) {
		t.Fatal("StartMiss GetM failed")
	}
	if !runSystem(s, 2000, func() bool { return s.L1D[0].WriteState(addr) == Modified }) {
		t.Fatal("core 0 never got M")
	}
	errs := errAcks(s)
	id := s.IssueCacheInval(500, 0, addr, false)
	if !runSystem(s, 3000, func() bool { return !s.InvalPending(0, id) }) {
		t.Fatal("dirty-line inval never acknowledged")
	}
	if errs[id] {
		t.Fatal("unexpected error ack for a dirty local copy")
	}
	if e, _ := dirOf(s, addr); e.DSharers.Any() || e.Owner != -1 {
		t.Fatalf("directory owner=%d dSharers=%s after dirty DCBI, want -1/0", e.Owner, e.DSharers)
	}
	// The line is refetchable and coherent afterwards.
	fillShared(t, s, 1, addr)
}

func TestIssueCacheInvalICacheOnDOnlyLine(t *testing.T) {
	s := NewSystem(DefaultConfig(2))
	const addr = 0x20000
	fillShared(t, s, 1, addr) // D-cache only
	id := s.IssueCacheInval(200, 0, addr, true)
	if !runSystem(s, 3000, func() bool { return !s.InvalPending(0, id) }) {
		t.Fatal("ICBI never acknowledged")
	}
	if !s.L1D[1].Present(addr) {
		t.Fatal("ICBI of a D-only line invalidated the D copy")
	}
}

// TestSharerWalksInvalidateInOrder: on a 128-core machine, with sharers in
// both words of the directory's bitsets, an InvalD, an InvalI, a GetM and an
// Upgrade each invalidate exactly the other sharers, in ascending order.
func TestSharerWalksInvalidateInOrder(t *testing.T) {
	sharers := []int{0, 5, 63, 64, 100, 127}
	const issuer = 64
	var want []int
	for _, c := range sharers {
		if c != issuer {
			want = append(want, c)
		}
	}
	for _, tc := range []struct {
		name string
		kind TxnKind // the issuer's request; InvalD and InvalI are cache-ops
	}{{"InvalD", InvalD}, {"InvalI", InvalI}, {"GetM", GetM}, {"Upgrade", Upgrade}} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSystem(DefaultConfig(128))
			const addr = 0x40000
			icache := tc.kind == InvalI
			l1s := s.L1D
			fill := GetS
			if icache {
				l1s, fill = s.L1I, GetI
			}
			var now uint64
			run := func(what string, done func() bool) {
				for limit := now + 5000; !done(); now++ {
					if now == limit {
						t.Fatalf("%s: not done by cycle %d", what, now)
					}
					s.Tick(now)
				}
			}
			for _, c := range sharers {
				l1s[c].StartMiss(now, addr, fill, false)
				run("fill", func() bool { return l1s[c].Present(addr) })
			}
			var got []int
			for c, l1 := range l1s {
				l1.OnExtInval = func(uint64) { got = append(got, c) }
			}
			switch tc.kind {
			case InvalD, InvalI:
				id := s.IssueCacheInval(now, issuer, addr, icache)
				run("invalidation", func() bool { return !s.InvalPending(issuer, id) })
			default:
				s.L1D[issuer].StartMiss(now, addr, tc.kind, false)
				run(tc.name, func() bool { return s.L1D[issuer].WriteState(addr) == Modified })
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("invalidated %v, want %v", got, want)
			}
		})
	}
}
