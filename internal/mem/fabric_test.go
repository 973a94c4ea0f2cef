package mem

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/interconnect"
)

// TestValidateFabricGeometry: every fabric-geometry mismatch must be
// rejected with a wrapped ErrConfig instead of silently mis-routing.
func TestValidateFabricGeometry(t *testing.T) {
	cases := []struct {
		name string
		mod  func(*Config)
		want string // substring of the error; "" = valid
	}{
		{"default-bus", func(c *Config) {}, ""},
		{"bus-ignores-zero-portbw", func(c *Config) { c.PortBW = 0 }, ""},
		{"xbar-default", func(c *Config) { c.Fabric = interconnect.KindCrossbar }, ""},
		{"xbar-zero-portbw", func(c *Config) {
			c.Fabric = interconnect.KindCrossbar
			c.PortBW = 0
		}, "zero or negative"},
		{"mesh-default", func(c *Config) { c.Fabric = interconnect.KindMesh }, ""},
		{"mesh-explicit-ok", func(c *Config) {
			c.Fabric = interconnect.KindMesh
			c.MeshW, c.MeshH = 4, 2
		}, ""},
		{"mesh-too-small", func(c *Config) {
			c.Fabric = interconnect.KindMesh
			c.MeshW, c.MeshH = 2, 2 // 4 nodes < 8 cores
		}, "fewer than"},
		{"mesh-half-specified", func(c *Config) {
			c.Fabric = interconnect.KindMesh
			c.MeshW = 4
		}, "set both or neither"},
		{"mesh-negative-dims", func(c *Config) {
			c.Fabric = interconnect.KindMesh
			c.MeshW, c.MeshH = -4, -2
		}, "negative"},
		{"mesh-zero-linklat", func(c *Config) {
			c.Fabric = interconnect.KindMesh
			c.LinkLat = 0
		}, "not positive"},
		{"mesh-zero-portbw", func(c *Config) {
			c.Fabric = interconnect.KindMesh
			c.PortBW = -3
		}, "zero or negative"},
		{"mesh-zero-link-width", func(c *Config) {
			c.Fabric = interconnect.KindMesh
			c.MeshLinkBytesPerCycle = 0
		}, "link width"},
		{"bus-ignores-zero-link-width", func(c *Config) {
			c.MeshLinkBytesPerCycle = 0
		}, ""},
		{"unknown-fabric", func(c *Config) { c.Fabric = interconnect.Kind(42) }, "unknown fabric"},
		{"cores-over-cap", func(c *Config) { c.Cores = MaxCores + 1 }, "outside 1.."},
	}
	for _, tc := range cases {
		cfg := DefaultConfig(8)
		tc.mod(&cfg)
		err := cfg.Validate()
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error: %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: mismatch accepted", tc.name)
			continue
		}
		if !errors.Is(err, ErrConfig) {
			t.Errorf("%s: error %v does not wrap ErrConfig", tc.name, err)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestMeshDimsAuto: the derived grid is near-square and covers the ports.
func TestMeshDimsAuto(t *testing.T) {
	cases := []struct{ cores, banks, w, h int }{
		{4, 4, 2, 2},
		{8, 4, 3, 3},
		{16, 4, 4, 4},
		{64, 4, 8, 8},
		{2, 8, 3, 3},
	}
	for _, tc := range cases {
		cfg := DefaultConfig(tc.cores)
		cfg.L2Banks = tc.banks
		w, h := cfg.MeshDims()
		if w != tc.w || h != tc.h {
			t.Errorf("%d cores x %d banks: grid %dx%d, want %dx%d", tc.cores, tc.banks, w, h, tc.w, tc.h)
		}
	}
	cfg := DefaultConfig(8)
	cfg.MeshW, cfg.MeshH = 5, 7
	if w, h := cfg.MeshDims(); w != 5 || h != 7 {
		t.Errorf("explicit dims not honoured: got %dx%d", w, h)
	}
}

// fabricConfigs returns a small config per fabric kind for cross-topology
// smoke tests.
func fabricConfigs(cores int) map[string]Config {
	out := map[string]Config{}
	for _, k := range interconnect.Kinds {
		cfg := DefaultConfig(cores)
		cfg.Fabric = k
		out[k.String()] = cfg
	}
	return out
}

// TestFillOnEveryFabric: the functional protocol (fill, upgrade, inval,
// writeback paths) completes on every topology.
func TestFillOnEveryFabric(t *testing.T) {
	for name, cfg := range fabricConfigs(8) {
		s := NewSystem(cfg)
		if got := s.FabricName(); got != name {
			t.Fatalf("FabricName = %q, want %q", got, name)
		}
		now := uint64(0)
		run := func(limit uint64, pred func() bool) bool {
			for end := now + limit; now < end; now++ {
				if pred() {
					return true
				}
				s.Tick(now)
			}
			return pred()
		}
		for c := 0; c < 8; c++ {
			if !s.L1D[c].StartMiss(now, 0x9000, GetS, false) {
				t.Fatalf("%s: StartMiss core %d failed", name, c)
			}
		}
		if !run(5000, func() bool {
			for c := 0; c < 8; c++ {
				if !s.L1D[c].Present(0x9000) {
					return false
				}
			}
			return true
		}) {
			t.Fatalf("%s: shared fills never completed", name)
		}
		// Exclusive steal across the fabric.
		if !s.L1D[3].StartMiss(now, 0x9000, GetM, false) {
			t.Fatalf("%s: GetM failed", name)
		}
		if !run(20000, func() bool { return s.L1D[3].WriteState(0x9000) == Modified }) {
			t.Fatalf("%s: GetM never completed", name)
		}
		// Invalidate and drain fully.
		id := s.IssueCacheInval(now, 0, 0x9000, false)
		if !run(20000, func() bool { return !s.InvalPending(0, id) && s.Quiet() }) {
			t.Fatalf("%s: inval never drained", name)
		}
	}
}

// TestWideMachineBeyond64Cores: the directory's variable-width sharer sets
// lift the old 64-core cap; a 96-core system validates, fills a line into
// every L1D, and records every sharer.
func TestWideMachineBeyond64Cores(t *testing.T) {
	const cores = 96
	cfg := DefaultConfig(cores)
	cfg.Fabric = interconnect.KindCrossbar
	if err := cfg.Validate(); err != nil {
		t.Fatalf("96-core config rejected: %v", err)
	}
	s := NewSystem(cfg)
	const addr = 0x40000
	now := uint64(0)
	run := func(limit uint64, pred func() bool) bool {
		for end := now + limit; now < end; now++ {
			if pred() {
				return true
			}
			s.Tick(now)
		}
		return pred()
	}
	for c := 0; c < cores; c++ {
		if !s.L1D[c].StartMiss(uint64(c), addr, GetS, false) {
			t.Fatalf("StartMiss core %d failed", c)
		}
	}
	if !run(100000, func() bool { return s.Quiet() }) {
		t.Fatal("wide fill storm never drained")
	}
	e, ok := s.Banks[s.Cfg.BankOf(addr)].DirLookup(addr)
	if !ok {
		t.Fatal("no directory entry")
	}
	if e.DSharers.Count() != cores {
		t.Fatalf("directory covers %d of %d sharers: %s", e.DSharers.Count(), cores, e.DSharers)
	}
	if !e.DSharers.Has(65) || !e.DSharers.Has(95) {
		t.Fatalf("high-core sharer bits missing: %s", e.DSharers)
	}
	// A GetM from a high-numbered core must invalidate all 96 copies.
	if !s.L1D[95].StartMiss(now, addr, GetM, false) {
		t.Fatal("GetM failed")
	}
	if !run(100000, func() bool { return s.L1D[95].WriteState(addr) == Modified }) {
		t.Fatal("GetM never completed")
	}
	for c := 0; c < 95; c++ {
		if s.L1D[c].Present(addr) {
			t.Fatalf("core %d still holds the line after core 95's GetM", c)
		}
	}
	if e, _ := s.Banks[s.Cfg.BankOf(addr)].DirLookup(addr); !e.DSharers.Only(95) || e.Owner != 95 {
		t.Fatalf("directory after wide GetM: owner=%d sharers=%s", e.Owner, e.DSharers)
	}
}
