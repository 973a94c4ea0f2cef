package core_test

import (
	"fmt"
	"hash/fnv"
	"slices"
	"strings"
	"testing"

	"repro/internal/barrier"
	"repro/internal/core"
	"repro/internal/kernels"
)

// TestMSHRRetryPinned pins cells with one and two L1D MSHRs, where
// livermore2's loads find every MSHR taken and retry from the miss queue
// and microbench's spinners wait on the flag line's fill, and an SMT cell
// whose two contexts share one physical L1D and its MSHRs (cpu/mt.go): the
// paths the miss queue's release gate (DESIGN.md §6, "Wakeup/select") must
// leave exactly as they were. Each cell's cycles and a digest of its whole stats report, the
// l1d.* counters and l1d.mshr_full_retries among them, are pinned; the
// values were recorded before the gate existed, when every waiting load
// was probed every cycle. The SMT cell's digest was re-pinned once, when
// the thread-select check stopped counting its probes as L1 hits (same
// cycles; l1i.hits falls).
func TestMSHRRetryPinned(t *testing.T) {
	for _, tc := range []struct {
		kernel       string
		kind         barrier.Kind
		mshrs, tpc   int
		cycles       uint64
		digest       string
		wantRetrying bool
	}{
		{"livermore2", barrier.KindFilterD, 1, 1, 6830, "039c46874777fd4a", true},
		{"livermore2", barrier.KindFilterD, 2, 1, 6160, "e47917db085b55fc", true},
		{"microbench", barrier.KindSWCentral, 1, 1, 72645, "6750f496d364fabd", false},
		{"microbench", barrier.KindSWCentral, 2, 1, 72645, "6750f496d364fabd", false},
		{"livermore2", barrier.KindSWCentral, 1, 2, 9719, "3efe59e782a462a5", true},
	} {
		name := fmt.Sprintf("%s/%s/mshrs-%d/tpc-%d", tc.kernel, tc.kind, tc.mshrs, tc.tpc)
		t.Run(name, func(t *testing.T) {
			const threads = 8
			cfg := core.DefaultConfig(threads / tc.tpc)
			cfg.ThreadsPerCore = tc.tpc
			cfg.Mem.MSHRs = tc.mshrs
			gen, err := barrier.New(tc.kind, threads, barrier.NewAllocator(cfg.Mem))
			if err != nil {
				t.Fatal(err)
			}
			k, err := kernels.New(tc.kernel, 64, 2)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := k.BuildPar(gen, threads)
			if err != nil {
				t.Fatal(err)
			}
			m, err := core.NewMachineChecked(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := barrier.Launch(m, gen, prog, threads); err != nil {
				t.Fatal(err)
			}
			cycles, err := m.Run(5_000_000)
			if err != nil {
				t.Fatal(err)
			}
			if err := k.Verify(m.Sys.Mem, prog, threads); err != nil {
				t.Fatal(err)
			}
			stats := m.StatsReport().Snapshot()
			var names []string
			for name := range stats {
				if !strings.HasPrefix(name, "translate.") { // host-side, not simulated
					names = append(names, name)
				}
			}
			slices.Sort(names)
			h := fnv.New64a()
			for _, name := range names {
				fmt.Fprintf(h, "%s=%d\n", name, stats[name])
			}
			digest := fmt.Sprintf("%016x", h.Sum64())
			retries := stats["l1d.mshr_full_retries"]
			t.Logf("%d cycles, digest %s, %d MSHR-full retries", cycles, digest, retries)
			if tc.wantRetrying && retries == 0 {
				t.Fatal("no load found the MSHRs full: the cell does not exercise the retry path")
			}
			if cycles != tc.cycles || digest != tc.digest {
				t.Fatalf("%d cycles, digest %s; pinned %d, %s", cycles, digest, tc.cycles, tc.digest)
			}
		})
	}
}
