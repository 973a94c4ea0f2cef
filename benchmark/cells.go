package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"repro/internal/barrier"
	"repro/internal/core"
	"repro/internal/interconnect"
	"repro/internal/kernels"
	"repro/internal/vet"
)

// simCell is one simulation: a kernel at a size, a barrier mechanism, a
// fabric and a core count. n and loops are the registry's sizing knobs; 0
// picks the kernel's default.
type simCell struct {
	kernel   string
	n, loops int
	kind     barrier.Kind
	fabric   interconnect.Kind
	cores    int
}

func (c simCell) id() string {
	return fmt.Sprintf("%s(%d,%d)/%s/%s/%dc", c.kernel, c.n, c.loops, c.kind, c.fabric, c.cores)
}

// knobs are the behaviour-invariant simulator toggles the cpu layer drives
// flip; the workloads run with the zero value.
type knobs struct{ noTranslate, noFastPath bool }

// maxCycles bounds one simulation, as the root benchmarks do.
const maxCycles = 500_000_000

// digestKeys is the fixed list of StatsReport counters a cell digest covers,
// next to cycles and committed instructions. It is fixed so that a counter
// added to StatsReport later does not invalidate golden.json. translate.*
// keys stay out: they differ under knobs.noTranslate by design.
var digestKeys = []string{
	"machine.wall_cycles", "core.cycles_total", "core.instructions_committed",
	"core.branch_mispredicts", "core.fetch_miss_stall_cycles", "core.fence_stall_cycles",
	"core.loads_executed", "core.stores_drained", "core.sc_failures",
	"l1d.hits", "l1d.misses", "l1i.hits", "l1i.misses",
	"l2.hits", "l2.misses_to_l3", "l2.invalidations_seen", "l2.upgrades", "l2.writebacks",
	"l3.hits", "l3.misses_to_dram",
	"filter.fills_parked", "filter.fills_released", "filter.error_responses",
	"sync.lock.acquires", "sync.lock.grants", "hwnet.arrivals", "hwnet.releases",
}

// cellOut is what one execution of a cell yields.
type cellOut struct {
	cycles, insts uint64
	run           time.Duration     // host time inside Machine.Run
	stats         map[string]uint64 // StatsReport snapshot
	digest        string
	// Traced pass only: bytes allocated while constructing the machine and
	// while running it.
	allocConstruct, allocRun uint64
}

// runSimCell takes a cell down the same public path the harness uses:
// barrier.NewAllocator/New, Kernel.BuildPar, vet.Check, core.NewMachineChecked,
// barrier.Launch, Machine.Run, Kernel.Verify, StatsReport. Caches start
// empty. With a tracer it records one span per layer call under a "cell"
// span, and the allocation split.
func runSimCell(c simCell, k knobs, tr *tracer) (out cellOut, err error) {
	tr.nextExec()
	cell := tr.begin("cell")
	defer tr.end(cell)
	fail := func(what string, err error) (cellOut, error) {
		return out, fmt.Errorf("%s: %s: %w", c.id(), what, err)
	}

	cfg := core.DefaultConfig(c.cores)
	cfg.Mem.Fabric = c.fabric
	cfg.NoTranslate, cfg.NoFastPath = k.noTranslate, k.noFastPath

	s := tr.begin("barrier.new")
	gen, err := barrier.New(c.kind, c.cores, barrier.NewAllocator(cfg.Mem))
	tr.end(s)
	if err != nil {
		return fail("barrier.New", err)
	}

	s = tr.begin("kernels.build")
	kern, err := kernels.New(c.kernel, c.n, c.loops)
	if err != nil {
		tr.end(s)
		return fail("kernels.New", err)
	}
	prog, err := kern.BuildPar(gen, c.cores)
	tr.end(s)
	if err != nil {
		return fail("BuildPar", err)
	}

	s = tr.begin("vet.check")
	err = vet.AsError(c.id(), vet.Check(prog, vet.Options{Threads: c.cores}))
	tr.end(s)
	if err != nil {
		return fail("vet", err)
	}

	var ms0, ms1, ms2 runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&ms0)
	}
	s = tr.begin("core.construct")
	m, err := core.NewMachineChecked(cfg)
	tr.end(s)
	if err != nil {
		return fail("NewMachineChecked", err)
	}
	if tr != nil {
		runtime.ReadMemStats(&ms1)
	}

	s = tr.begin("barrier.launch")
	err = barrier.Launch(m, gen, prog, c.cores)
	tr.end(s)
	if err != nil {
		return fail("Launch", err)
	}

	s = tr.begin("core.run")
	t0 := time.Now()
	out.cycles, err = m.Run(maxCycles)
	out.run = time.Since(t0)
	tr.end(s)
	if err != nil {
		return fail("Run", err)
	}
	if tr != nil {
		runtime.ReadMemStats(&ms2)
		out.allocConstruct = ms1.TotalAlloc - ms0.TotalAlloc
		out.allocRun = ms2.TotalAlloc - ms1.TotalAlloc
	}

	s = tr.begin("kernels.verify")
	err = kern.Verify(m.Sys.Mem, prog, c.cores)
	tr.end(s)
	if err != nil {
		return fail("Verify", err)
	}

	s = tr.begin("core.stats")
	out.stats = m.StatsReport().Snapshot()
	out.insts = m.TotalCommitted()
	tr.end(s)
	out.digest = digestOf(out.cycles, out.insts, out.stats)
	return out, nil
}

// digestOf condenses a cell's simulated outcome into a short hex string.
func digestOf(cycles, insts uint64, stats map[string]uint64) string {
	h := sha256.New()
	fmt.Fprintf(h, "cycles=%d inst=%d", cycles, insts)
	for _, k := range digestKeys {
		fmt.Fprintf(h, " %s=%d", k, stats[k])
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

func mustKind(s string) barrier.Kind {
	k, err := barrier.ParseKind(s)
	if err != nil {
		panic(err)
	}
	return k
}

func mustFabric(s string) interconnect.Kind {
	k, err := interconnect.ParseKind(s)
	if err != nil {
		panic(err)
	}
	return k
}

func cell(kernel string, n, loops int, kind, fabric string, cores int) simCell {
	return simCell{kernel, n, loops, mustKind(kind), mustFabric(fabric), cores}
}

// referenceCell is the one cell BENCH_translate.json tracked; the cpu layer
// drives run it under the simulator's knobs.
var referenceCell = cell("livermore2", 256, 2, "filter-d", "bus", 16)

// simWorkloads are the three fixed cell lists that run on one goroutine.
// The reasons for each are in README.md and BENCHMARK.json.
var simWorkloads = map[string][]simCell{
	"compute16": {
		referenceCell,
		cell("livermore2", 1024, 4, "filter-d", "bus", 16),
		cell("livermore3", 1024, 8, "filter-d", "bus", 16),
		cell("livermore6", 64, 1, "filter-i", "bus", 16),
		cell("autcor", 1024, 2, "filter-d", "bus", 16),
		cell("viterbi", 96, 1, "filter-d-pp", "bus", 16),
		cell("skewed", 96, 4, "filter-d", "xbar", 16),
		cell("coarse", 256, 4, "hw-net", "bus", 16),
	},
	"spin16": {
		cell("livermore2", 0, 0, "sw-central", "bus", 16),
		cell("livermore3", 0, 0, "sw-tree", "bus", 16),
		cell("autcor", 0, 0, "sw-central", "bus", 16),
		cell("viterbi", 32, 1, "sw-tree", "bus", 16),
		cell("viterbi", 24, 1, "sw-central", "xbar", 16),
		cell("microbench", 4, 2, "sw-central", "mesh", 32),
	},
	"parked64": parked64Cells(),
}

func parked64Cells() []simCell {
	var cs []simCell
	for _, kind := range []string{"filter-d", "filter-i-pp", "hw-net"} {
		for _, fab := range interconnect.Kinds {
			cs = append(cs, cell("microbench", 16, 8, kind, fab.String(), 64))
		}
	}
	return append(cs,
		cell("lockreduce", 256, 4, "filter-d", "xbar", 16),
		cell("pipeline", 96, 2, "filter-d", "mesh", 16))
}
