package core

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/mem"
)

// TestNewMachineCheckedRejectsCPUConfig: a CPU configuration the pipeline
// cannot run with is an error wrapping mem.ErrConfig from
// NewMachineChecked, never a panic or a machine that stalls forever.
func TestNewMachineCheckedRejectsCPUConfig(t *testing.T) {
	cases := []struct {
		name string
		mod  func(*Config)
		want string // "" = valid
	}{
		{"default", func(c *Config) {}, ""},
		{"zero-delays", func(c *Config) { c.CPU.RedirectPenalty, c.CPU.HWBarrierWireLat = 0, 0 }, ""},
		{"bimodal-not-pow2", func(c *Config) { c.CPU.BimodalEntries = 1000 }, "powers of two"},
		{"btb-zero", func(c *Config) { c.CPU.BTBEntries = 0 }, "BTBEntries = 0"},
		{"ruu-zero", func(c *Config) { c.CPU.RUUSize = 0 }, "RUUSize = 0"},
		{"ruu-over-slot-width", func(c *Config) { c.CPU.RUUSize = 1 << 16 }, "RUUSize = 65536 is over 65535"},
		{"ruu-slot-width", func(c *Config) { c.CPU.RUUSize = 1<<16 - 1 }, ""},
		{"fetch-zero", func(c *Config) { c.CPU.FetchWidth = 0 }, "FetchWidth = 0"},
		{"commit-negative", func(c *Config) { c.CPU.CommitWidth = -1 }, "CommitWidth = -1"},
		{"lsq-zero", func(c *Config) { c.CPU.LSQSize = 0 }, "LSQSize = 0"},
		{"sb-zero", func(c *Config) { c.CPU.SBSize = 0 }, "SBSize = 0"},
		{"no-fp-units", func(c *Config) { c.CPU.FPUnits = 0 }, "FPUnits = 0"},
		{"zero-div-latency", func(c *Config) { c.CPU.IntDivLat = 0 }, "IntDivLat = 0"},
		{"negative-wire-latency", func(c *Config) { c.CPU.HWBarrierWireLat = -2 }, "HWBarrierWireLat = -2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(2)
			tc.mod(&cfg)
			m, err := NewMachineChecked(cfg)
			if tc.want == "" {
				if err != nil || m == nil {
					t.Fatalf("valid config rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatal("accepted a CPU config that cannot run")
			}
			if !errors.Is(err, mem.ErrConfig) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not wrap mem.ErrConfig or lacks %q", err, tc.want)
			}
		})
	}
}
