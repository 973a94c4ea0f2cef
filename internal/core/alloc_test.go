package core

import (
	"runtime"
	"testing"
)

// TestNewMachineAllocBound: building the default 64-core machine
// allocates at most 0.6 MB (it reads about 0.40 MB). Tag arrays and the
// cores' BTBs are allocated a block at a time on first insert, so
// construction pays for none of the 128 L1s, the banks, the L3 or the
// 64 BTBs; dense tag arrays would cost about 5 MB here and dense BTBs
// another 0.8 MB.
func TestNewMachineAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	const bound = 0.6e6
	cfg := DefaultConfig(64)
	NewMachine(cfg) // first-use initialisation outside the measurement
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m := NewMachine(cfg)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(m)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("NewMachine(DefaultConfig(64)) allocated %d bytes", got)
	if got > bound {
		t.Fatalf("NewMachine(DefaultConfig(64)) allocated %d bytes, bound %.0f", got, bound)
	}
}
