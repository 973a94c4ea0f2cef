package vet

import (
	"runtime"
	"testing"

	"repro/internal/barrier"
	"repro/internal/kernels"
)

// TestCheckAllocBound guards the per-block state layout: vet.Check on the
// filter-i-pp microbench(16,8), whose stall stubs make it mostly NOP
// padding, must not allocate in proportion to instructions × threads.
// One state per instruction cost 6.95 MB at 64 threads and 265.5 MB at
// 1,024.
func TestCheckAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	k, err := kernels.New("microbench", 16, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		threads int
		maxMB   float64
	}{{64, 1.5}, {1024, 24}} {
		prog, ok := buildPar(k, barrier.KindFilterIPP, c.threads)
		if !ok {
			t.Fatalf("filter-i-pp microbench does not build at %d threads", c.threads)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		ds := Check(prog, Options{Threads: c.threads})
		runtime.ReadMemStats(&m1)
		if len(ds) != 0 {
			t.Fatalf("%d threads: %v", c.threads, ds)
		}
		mb := float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
		t.Logf("%d threads: %.2f MB", c.threads, mb)
		if mb > c.maxMB {
			t.Errorf("vet.Check at %d threads allocated %.2f MB, over the %.1f MB bound", c.threads, mb, c.maxMB)
		}
	}
}
