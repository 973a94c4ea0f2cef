package mem

import (
	"testing"
	"testing/quick"
)

func TestMemoryReadWrite(t *testing.T) {
	m := NewMemory()
	m.Write(0x1000, 8, 0x1122334455667788)
	if got := m.Read(0x1000, 8); got != 0x1122334455667788 {
		t.Fatalf("read %#x", got)
	}
	if got := m.Read(0x1000, 4); got != 0x55667788 {
		t.Fatalf("low word %#x", got)
	}
	if got := m.Read(0x1004, 4); got != 0x11223344 {
		t.Fatalf("high word %#x", got)
	}
	m.Write(0x1002, 2, 0xBEEF)
	if got := m.Read(0x1000, 8); got != 0x11223344BEEF7788 {
		t.Fatalf("merged %#x", got)
	}
}

func TestMemoryPageCrossing(t *testing.T) {
	m := NewMemory()
	addr := uint64(pageBytes - 3)
	m.Write(addr, 8, 0xA1B2C3D4E5F60718)
	if got := m.Read(addr, 8); got != 0xA1B2C3D4E5F60718 {
		t.Fatalf("page-crossing read %#x", got)
	}
}

func TestMemoryBytesRoundTrip(t *testing.T) {
	m := NewMemory()
	data := make([]byte, 10000)
	for i := range data {
		data[i] = byte(i * 7)
	}
	m.WriteBytes(0x3FF0, data) // crosses several pages
	got := m.ReadBytes(0x3FF0, len(data))
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("byte %d: %d != %d", i, got[i], data[i])
		}
	}
}

func TestMemoryFloatHelpers(t *testing.T) {
	m := NewMemory()
	m.WriteFloat64(0x2000, 3.25)
	if got := m.ReadFloat64(0x2000); got != 3.25 {
		t.Fatalf("float round trip %v", got)
	}
	m.WriteUint64(0x2008, 42)
	if m.ReadUint64(0x2008) != 42 {
		t.Fatal("uint64 round trip")
	}
}

func TestMemoryQuickRoundTrip(t *testing.T) {
	m := NewMemory()
	f := func(addr uint32, v uint64, szSel uint8) bool {
		size := []int{1, 2, 4, 8}[szSel%4]
		a := uint64(addr)
		m.Write(a, size, v)
		mask := ^uint64(0)
		if size < 8 {
			mask = (1 << (8 * uint(size))) - 1
		}
		return m.Read(a, size) == v&mask
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestCacheInsertLookupLRU(t *testing.T) {
	c := NewCache("t", 4*64, 2, 64) // 2 sets, 2 ways
	// Addresses mapping to set 0: 0, 128, 256 (line 64B, 2 sets).
	c.Insert(0, Shared)
	c.Insert(128, Shared)
	if c.Lookup(0) != Shared || c.Lookup(128) != Shared {
		t.Fatal("inserted lines absent")
	}
	// Touch 0 so 128 is LRU, then insert 256: victim must be 128.
	c.Lookup(0)
	v := c.Insert(256, Modified)
	if !v.Valid || v.Addr != 128 {
		t.Fatalf("victim %+v, want addr 128", v)
	}
	if c.Lookup(128) != Invalid {
		t.Fatal("evicted line still present")
	}
	if c.Lookup(256) != Modified {
		t.Fatal("new line wrong state")
	}
}

func TestCacheDirtyVictim(t *testing.T) {
	c := NewCache("t", 2*64, 1, 64) // 2 sets, direct mapped
	c.Insert(0, Modified)
	v := c.Insert(128, Shared) // same set
	if !v.Valid || !v.Dirty || v.Addr != 0 {
		t.Fatalf("victim %+v, want dirty addr 0", v)
	}
}

func TestCacheInvalidateAndStates(t *testing.T) {
	c := NewCache("t", 8*64, 2, 64)
	c.Insert(64, Shared)
	c.SetState(64, Modified)
	if c.Peek(64) != Modified {
		t.Fatal("SetState failed")
	}
	present, dirty := c.Invalidate(64)
	if !present || !dirty {
		t.Fatalf("invalidate returned %v %v", present, dirty)
	}
	if p, _ := c.Invalidate(64); p {
		t.Fatal("double invalidate reported present")
	}
	// SetState on absent line is a no-op.
	c.SetState(999*64, Modified)
	if c.Peek(999*64) != Invalid {
		t.Fatal("SetState resurrected a line")
	}
}

func TestCacheLineAddr(t *testing.T) {
	c := NewCache("t", 8*64, 2, 64)
	if c.LineAddr(0x12345) != 0x12340 {
		t.Fatalf("LineAddr %#x", c.LineAddr(0x12345))
	}
}

func TestCacheInsertExistingUpdatesState(t *testing.T) {
	c := NewCache("t", 8*64, 2, 64)
	c.Insert(0, Shared)
	v := c.Insert(0, Modified)
	if v.Valid {
		t.Fatal("re-insert produced a victim")
	}
	if c.Peek(0) != Modified {
		t.Fatal("state not upgraded")
	}
}

func TestConfigBankMapping(t *testing.T) {
	cfg := DefaultConfig(16)
	// Consecutive lines round-robin across banks.
	for i := 0; i < 16; i++ {
		addr := uint64(i * cfg.LineBytes)
		if got := cfg.BankOf(addr); got != i%cfg.L2Banks {
			t.Fatalf("BankOf(%#x) = %d", addr, got)
		}
	}
	// Stride LineBytes*L2Banks preserves the bank.
	stride := uint64(cfg.LineBytes * cfg.L2Banks)
	b0 := cfg.BankOf(0x5000)
	for i := 1; i < 8; i++ {
		if cfg.BankOf(0x5000+uint64(i)*stride) != b0 {
			t.Fatal("stride does not preserve bank")
		}
	}
}

func TestDefaultConfigMatchesTable2(t *testing.T) {
	cfg := DefaultConfig(16)
	if cfg.L1Size != 64<<10 || cfg.L1Assoc != 2 || cfg.L1Lat != 1 {
		t.Error("L1 config differs from Table 2")
	}
	if cfg.L2Size != 512<<10 || cfg.L2Assoc != 2 || cfg.L2Lat != 14 {
		t.Error("L2 config differs from Table 2")
	}
	if cfg.L3Size != 4096<<10 || cfg.L3Assoc != 2 || cfg.L3Lat != 38 {
		t.Error("L3 config differs from Table 2")
	}
	if cfg.MemLat != 138 {
		t.Error("memory latency differs from Table 2")
	}
	if cfg.FilterBW != 1 {
		t.Error("filter bandwidth differs from Table 2 (1 request/cycle)")
	}
	if cfg.LineBytes != 64 {
		t.Error("line size must be 64B (8 doubles)")
	}
}

// runSystem ticks a system until pred or the limit.
func runSystem(s *System, limit int, pred func() bool) bool {
	for i := 0; i < limit; i++ {
		if pred() {
			return true
		}
		s.Tick(uint64(i))
	}
	return pred()
}

// errAcks installs an OnFault that records the ID of every invalidation
// acknowledged with an error: OnFault is how an error ack reaches its
// issuer.
func errAcks(s *System) map[uint64]bool {
	errs := map[uint64]bool{}
	s.OnFault = func(_ int, t Txn) {
		if t.Kind == InvalAck {
			errs[t.ID] = true
		}
	}
	return errs
}

func TestSystemFillRoundTrip(t *testing.T) {
	s := NewSystem(DefaultConfig(2))
	s.Mem.WriteUint64(0x4000, 777)
	l1 := s.L1D[0]
	if l1.Present(0x4000) {
		t.Fatal("cold cache reports hit")
	}
	if !l1.StartMiss(0, 0x4000, GetS, false) {
		t.Fatal("StartMiss failed")
	}
	if !runSystem(s, 1000, func() bool { return l1.Present(0x4000) }) {
		t.Fatal("fill never arrived")
	}
	// Second fill of the same line should be an L2 hit and much faster.
	s2 := NewSystem(DefaultConfig(2))
	s2.L1D[0].StartMiss(0, 0x4000, GetS, false)
	first := 0
	for i := 0; i < 1000; i++ {
		s2.Tick(uint64(i))
		if s2.L1D[0].Present(0x4000) {
			first = i
			break
		}
	}
	s2.L1D[0].localInval(0x4000)
	s2.L1D[0].StartMiss(uint64(first), 0x4000, GetS, false)
	second := 0
	for i := first; i < first+1000; i++ {
		s2.Tick(uint64(i))
		if s2.L1D[0].Present(0x4000) {
			second = i - first
			break
		}
	}
	if second >= first {
		t.Fatalf("L2 hit (%d cycles) not faster than DRAM fill (%d cycles)", second, first)
	}
}

func TestSystemGetMInvalidatesSharers(t *testing.T) {
	s := NewSystem(DefaultConfig(2))
	lost := false
	s.L1D[0].OnExtInval = func(addr uint64) { lost = true }
	s.L1D[0].StartMiss(0, 0x8000, GetS, false)
	if !runSystem(s, 1000, func() bool { return s.L1D[0].Present(0x8000) }) {
		t.Fatal("core 0 fill missing")
	}
	s.L1D[1].StartMiss(500, 0x8000, GetM, false)
	if !runSystem(s, 3000, func() bool { return s.L1D[1].WriteState(0x8000) == Modified }) {
		t.Fatal("core 1 never got M")
	}
	if s.L1D[0].Present(0x8000) {
		t.Fatal("core 0 still holds an invalidated line")
	}
	if !lost {
		t.Fatal("OnExtInval callback not fired")
	}
}

func TestSystemUpgradePath(t *testing.T) {
	s := NewSystem(DefaultConfig(2))
	s.L1D[0].StartMiss(0, 0xC000, GetS, false)
	if !runSystem(s, 1000, func() bool { return s.L1D[0].Present(0xC000) }) {
		t.Fatal("fill missing")
	}
	if st := s.L1D[0].WriteState(0xC000); st != Shared {
		t.Fatalf("state %v, want Shared", st)
	}
	s.L1D[0].StartMiss(600, 0xC000, Upgrade, false)
	if !runSystem(s, 2000, func() bool { return s.L1D[0].WriteState(0xC000) == Modified }) {
		t.Fatal("upgrade never completed")
	}
}

func TestSystemCacheInvalBroadcast(t *testing.T) {
	s := NewSystem(DefaultConfig(3))
	// Cores 1 and 2 share the line; core 0 DCBIs it.
	s.L1D[1].StartMiss(0, 0x10000, GetS, false)
	s.L1D[2].StartMiss(0, 0x10000, GetS, false)
	if !runSystem(s, 2000, func() bool {
		return s.L1D[1].Present(0x10000) && s.L1D[2].Present(0x10000)
	}) {
		t.Fatal("initial fills missing")
	}
	errs := errAcks(s)
	id := s.IssueCacheInval(1000, 0, 0x10000, false)
	if !runSystem(s, 3000, func() bool { return !s.InvalPending(0, id) }) {
		t.Fatal("inval never acknowledged")
	}
	if s.L1D[1].Present(0x10000) || s.L1D[2].Present(0x10000) {
		t.Fatal("DCBI broadcast did not clear sharer copies")
	}
	if errs[id] {
		t.Fatal("unexpected error ack")
	}
}

func TestSystemICacheInvalSeparateFromD(t *testing.T) {
	s := NewSystem(DefaultConfig(2))
	s.L1I[1].StartMiss(0, 0x20000, GetI, false)
	s.L1D[1].StartMiss(0, 0x20000, GetS, false)
	if !runSystem(s, 2000, func() bool {
		return s.L1I[1].Present(0x20000) && s.L1D[1].Present(0x20000)
	}) {
		t.Fatal("fills missing")
	}
	id := s.IssueCacheInval(1000, 0, 0x20000, true) // ICBI
	if !runSystem(s, 3000, func() bool { return !s.InvalPending(0, id) }) {
		t.Fatal("no ack")
	}
	if s.L1I[1].Present(0x20000) {
		t.Fatal("ICBI left the I-line")
	}
	if !s.L1D[1].Present(0x20000) {
		t.Fatal("ICBI must not touch D-lines")
	}
}

func TestSystemQuietAndCoreQuiet(t *testing.T) {
	s := NewSystem(DefaultConfig(2))
	if !s.Quiet() {
		t.Fatal("fresh system not quiet")
	}
	s.L1D[0].StartMiss(0, 0x4000, GetS, false)
	if s.Quiet() || s.CoreQuiet(0) {
		t.Fatal("system quiet with outstanding miss")
	}
	if !s.CoreQuiet(1) {
		t.Fatal("core 1 has nothing outstanding")
	}
	runSystem(s, 2000, func() bool { return s.Quiet() })
	if !s.Quiet() {
		t.Fatal("system never drained")
	}
}

func TestSystemMSHRLimit(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.MSHRs = 2
	s := NewSystem(cfg)
	if !s.L1D[0].StartMiss(0, 0x1000, GetS, false) {
		t.Fatal("first miss rejected")
	}
	if !s.L1D[0].StartMiss(0, 0x2000, GetS, false) {
		t.Fatal("second miss rejected")
	}
	if s.L1D[0].StartMiss(0, 0x3000, GetS, false) {
		t.Fatal("third miss should exhaust MSHRs")
	}
	// Piggyback on an existing line does not need a new MSHR.
	if !s.L1D[0].StartMiss(0, 0x1008, GetS, false) {
		t.Fatal("piggyback rejected")
	}
}

func TestSystemSquashedMSHRDropsResponse(t *testing.T) {
	s := NewSystem(DefaultConfig(1))
	s.L1D[0].StartMiss(0, 0x4000, GetS, false)
	s.L1D[0].SquashMisses()
	// The response must be dropped without installing the line.
	for i := 0; i < 2000; i++ {
		s.Tick(uint64(i))
	}
	if s.L1D[0].Present(0x4000) {
		t.Fatal("squashed fill installed a line")
	}
}

func TestBusOrderingSameCore(t *testing.T) {
	// A core's invalidation must reach the bank before its later fill
	// request (the property the barrier sequences rely on).
	cfg := DefaultConfig(2)
	s := NewSystem(cfg)
	var order []TxnKind
	hookBank := s.Banks[cfg.BankOf(0x40000)]
	hookBank.SetHook(recordHook{&order})
	s.IssueCacheInval(0, 0, 0x40000, false)
	s.L1D[0].StartMiss(0, 0x40000, GetS, false)
	runSystem(s, 2000, func() bool { return len(order) >= 2 })
	if len(order) < 2 || order[0] != InvalD || order[1] != GetS {
		t.Fatalf("bank observed %v, want [InvalD GetS]", order)
	}
}

// recordHook records the kinds of transactions a bank processes.
type recordHook struct{ order *[]TxnKind }

func (r recordHook) OnInval(now uint64, addr uint64, core int) bool {
	*r.order = append(*r.order, InvalD)
	return false
}

func (r recordHook) OnFill(now uint64, t Txn) (bool, bool) {
	*r.order = append(*r.order, t.Kind)
	return false, false
}

func (r recordHook) BindWork(*int) {} // never parks: the bank's count stays zero

func (r recordHook) PopReleased(now uint64) (Txn, bool, bool) { return Txn{}, false, false }

func (r recordHook) NextEvent(now uint64) (uint64, bool) { return 0, false }

func TestL3HitFasterThanDRAM(t *testing.T) {
	s := NewSystem(DefaultConfig(1))
	// First touch goes to DRAM and installs in L3 and L2.
	s.L1D[0].StartMiss(0, 0x9000, GetS, false)
	first := -1
	for i := 0; i < 2000; i++ {
		s.Tick(uint64(i))
		if s.L1D[0].Present(0x9000) {
			first = i
			break
		}
	}
	if first < 0 {
		t.Fatal("first fill missing")
	}
	if s.L3Cache().Misses != 1 {
		t.Fatalf("L3 misses = %d, want 1", s.L3Cache().Misses)
	}
	// A different line in the same L3 set region still misses L3.
	s.L1D[0].StartMiss(uint64(first), 0xA000, GetS, false)
	if !runSystem(s, 2000, func() bool { return s.L1D[0].Present(0xA000) }) {
		t.Fatal("second fill missing")
	}
	if s.L3Cache().Misses != 2 {
		t.Fatalf("L3 misses = %d, want 2", s.L3Cache().Misses)
	}
}

func TestWritebackOnDirtyEviction(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.L1Size = 2 * 64 // tiny direct-ish L1: 1 set x 2 ways
	cfg.L1Assoc = 2
	s := NewSystem(cfg)
	// Fill two ways with modified lines, then a third forces a dirty
	// eviction and a WB transaction.
	for i, addr := range []uint64{0x1000, 0x2000, 0x3000} {
		s.L1D[0].StartMiss(uint64(i*500), addr, GetM, false)
		if !runSystem(s, (i+1)*1000, func() bool { return s.L1D[0].Present(addr) }) {
			t.Fatalf("fill %#x missing", addr)
		}
	}
	var wbs uint64
	for _, bk := range s.Banks {
		wbs += bk.WBs
	}
	if !runSystem(s, 4000, func() bool {
		wbs = 0
		for _, bk := range s.Banks {
			wbs += bk.WBs
		}
		return wbs >= 1
	}) {
		t.Fatalf("no writeback observed after dirty eviction (wbs=%d)", wbs)
	}
}

func TestSharedDataBusSlower(t *testing.T) {
	// The same burst of fills takes longer over one shared data bus than
	// over the per-bank crossbar.
	run := func(shared bool) int {
		cfg := DefaultConfig(8)
		cfg.SharedDataBus = shared
		s := NewSystem(cfg)
		for c := 0; c < 8; c++ {
			s.L1D[c].StartMiss(0, uint64(0x4000+c*64), GetS, false)
		}
		for i := 0; i < 5000; i++ {
			done := true
			for c := 0; c < 8; c++ {
				if !s.L1D[c].Present(uint64(0x4000 + c*64)) {
					done = false
				}
			}
			if done {
				return i
			}
			s.Tick(uint64(i))
		}
		return -1
	}
	fast := run(false)
	slow := run(true)
	if fast < 0 || slow < 0 {
		t.Fatal("fills did not complete")
	}
	if slow <= fast {
		t.Fatalf("shared bus (%d cycles) not slower than crossbar (%d)", slow, fast)
	}
}

func TestGetSDowngradesOwner(t *testing.T) {
	s := NewSystem(DefaultConfig(2))
	s.L1D[0].StartMiss(0, 0xB000, GetM, false)
	if !runSystem(s, 1000, func() bool { return s.L1D[0].WriteState(0xB000) == Modified }) {
		t.Fatal("owner fill missing")
	}
	s.L1D[1].StartMiss(500, 0xB000, GetS, false)
	if !runSystem(s, 3000, func() bool { return s.L1D[1].Present(0xB000) }) {
		t.Fatal("reader fill missing")
	}
	if st := s.L1D[0].WriteState(0xB000); st != Shared {
		t.Fatalf("owner not downgraded: %v", st)
	}
}

func TestBusQuietAndStats(t *testing.T) {
	s := NewSystem(DefaultConfig(2))
	if !s.Fabric().Quiet() {
		t.Fatal("fresh bus not quiet")
	}
	s.L1D[0].StartMiss(0, 0x5000, GetS, false)
	runSystem(s, 2000, func() bool { return s.Quiet() })
	stats := map[string]uint64{}
	s.FabricStats(2000, func(name string, v uint64) { stats[name] = v })
	if stats["bus.request_grants"] == 0 || stats["bus.response_grants"] == 0 {
		t.Fatalf("bus grants not counted: %v", stats)
	}
}
