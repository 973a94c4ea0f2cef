// The differential driver. A cell (kernel, mechanism, fabric, cores, maybe
// one config tweak) is simulated once per process, verified against the Go
// reference and memoised; every knob reruns it with one behaviour-invariant
// config change that must reproduce it through diff, the one comparison.
// The 308 matrix cells (registry kernel × mechanism × fabric, 8 cores) are
// pinned by testdata/fabric_golden.json; a matrix cell with no entry fails.
// Every harness.ChaosCell of the default chaos matrix, the three
// other-fabric matrices and TestChaosLockKernel's cells, Report text
// included, is pinned by testdata/chaos_golden.json.
//
// Fabric golden version 2. Regenerate a golden only for a reviewed
// timing-model change, from a tree differing from the last pinned commit by
// that change alone, with `go test -run 'TestDifferential$|Chaos'
// -update-golden .`, naming in the commit the cells that moved and why:
// regenerating to silence an unexplained diff turns every differential
// here into a tautology.
package cmpfb

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/asm"
	"repro/internal/barrier"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/harness"
	"repro/internal/hbcheck"
	"repro/internal/interconnect"
	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/sanitize"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/fabric_golden.json and the chaos entries the tests run in testdata/chaos_golden.json (see the driver's file comment)")

const (
	goldenPath      = "testdata/fabric_golden.json"
	chaosGoldenPath = "testdata/chaos_golden.json"
)

type cell struct {
	name   string // subtest path; a matrix cell's is <fabric>/<kernel>/<mechanism>, its golden key
	k      kernels.Kernel
	kind   barrier.Kind
	fab    interconnect.Kind
	cores  int
	tweak  func(*core.Config)
	seq    bool              // run k's sequential build on one core
	stall  bool              // deschedule the last thread first: the barrier never opens
	skip   map[string]string // knob (or knob component) -> why this cell opts out
	matrix bool
}

// knob is one behaviour-invariant change to a run: set edits the machine's
// configuration, attach puts checkers on the machine (either may be nil).
type knob struct {
	set    func(*core.Config)
	attach func(*core.Machine)
}

var (
	noFastPath  = func(c *core.Config) { c.NoFastPath = true }
	noTranslate = func(c *core.Config) { c.NoTranslate = true }
	sanitizer   = func(m *core.Machine) { sanitize.Attach(m, sanitize.Default()) }
)

// knobs must each leave every cell's outcome, cycles and counters as the
// baseline's (knob ""). The composites run only where a test names them. A
// knob with a Probe component also attaches a hasher to the machine's event
// stream, whose hash must equal the Probe knob's (see check).
var knobs = map[string]knob{
	"":                     {},
	"NoTranslate":          {set: noTranslate},
	"NoFastPath":           {set: noFastPath},
	"Sanitize":             {attach: sanitizer},
	"HB":                   {attach: func(m *core.Machine) { hbcheck.Attach(m, hbcheck.Config{}) }},
	"Sanitize+NoFastPath":  {noFastPath, sanitizer},
	"Sanitize+NoTranslate": {noTranslate, sanitizer},
	"Probe":                {},
	"Probe+NoFastPath":     {set: noFastPath},
	"Probe+NoTranslate":    {set: noTranslate},
}

// probeKnobs are the knobs the probe differential runs.
var probeKnobs = []string{"Probe", "Probe+NoFastPath", "Probe+NoTranslate"}

var (
	matrixCells, specialCells, lockCells, allCells []*cell
	cellNamed                                      = map[string]*cell{}

	bus          = []interconnect.Kind{interconnect.KindBus}
	otherFabrics = []interconnect.Kind{interconnect.KindCrossbar, interconnect.KindMesh, interconnect.KindOptical}
	dAndCentral  = []barrier.Kind{barrier.KindFilterD, barrier.KindSWCentral}
	lv3Viterbi   = []string{"livermore3", "viterbi"}
)

func init() {
	for _, fab := range interconnect.Kinds {
		for _, name := range kernels.Names() {
			n, loops := 0, 0
			if name == "microbench" {
				// Not the paper's 64×64: 8×8 covers the same blocks (CHANGES.md).
				n, loops = 8, 8
			}
			k, err := kernels.New(name, n, loops)
			if err != nil {
				panic(err)
			}
			for _, kind := range barrier.Kinds {
				matrixCells = append(matrixCells, &cell{name: fmt.Sprintf("%s/%s/%s", fab, name, kind),
					k: k, kind: kind, fab: fab, cores: 8, matrix: true})
			}
		}
	}
	timeout := func(c *core.Config) { c.FilterTimeout = 50_000 }
	// Open in ROADMAP: with Loops > 1 the traceback reads metrics others reset.
	races := map[string]string{"HB": "multi-pass viterbi races between passes, and the checker says so"}
	specialCells = []*cell{
		// Parked fills at a D-cache filter; the timeout armed (next-event query).
		{name: "microbench-filterD-16", k: &kernels.Microbench{K: 8, M: 4}, kind: barrier.KindFilterD, cores: 16},
		{name: "microbench-filterDPP-timeout-8", k: &kernels.Microbench{K: 8, M: 4}, kind: barrier.KindFilterDPP, cores: 8, tweak: timeout},
		{name: "viterbi-filterDPP-timeout-4", k: kernels.NewViterbi(32, 2), kind: barrier.KindFilterDPP, cores: 4, tweak: timeout, skip: races},
		// Spin barriers: cores quiesce behind LL/SC misses, neighbours spin on hits.
		{name: "livermore2-swcentral-8", k: kernels.NewLivermore2(64, 2), kind: barrier.KindSWCentral, cores: 8},
		{name: "livermore2-swtree-16", k: kernels.NewLivermore2(64, 2), kind: barrier.KindSWTree, cores: 16},
		{name: "livermore2-swcentral-16-xbar", k: kernels.NewLivermore2(64, 2), kind: barrier.KindSWCentral, cores: 16, fab: interconnect.KindCrossbar},
		{name: "viterbi-filterI-4-sharedbus", k: kernels.NewViterbi(32, 2), kind: barrier.KindFilterI, cores: 4,
			tweak: func(c *core.Config) { c.Mem.SharedDataBus = true }, skip: races},
		{name: "autcor-hwnet-8", k: kernels.NewAutcor(128, 4, 2), kind: barrier.KindHWNet, cores: 8},
		// A lone core quiescing on DRAM stalls; the others are the sequential
		// builds of internal/harness's Table 1 test kernels, at its sizes.
		{name: "livermore3-seq-1", k: kernels.NewLivermore3(128, 2), cores: 1, seq: true},
		{name: "livermore2-seq-1", k: kernels.NewLivermore2(64, 2), cores: 1, seq: true},
		{name: "livermore6-seq-1", k: kernels.NewLivermore6(64, 2), cores: 1, seq: true},
		{name: "autcor-seq-1", k: kernels.NewAutcor(128, 4, 2), cores: 1, seq: true},
		{name: "viterbi-seq-1", k: kernels.NewViterbi(32, 2), cores: 1, seq: true},
		// A deadlock: the fast-forward must jump to the limit dense ticks crawl to.
		{name: "deadlock-filterD-4", k: &kernels.Microbench{K: 4, M: 2}, kind: barrier.KindFilterD, cores: 4, stall: true,
			skip: map[string]string{"Sanitize": "the sanitizer's watchdog is meant to stop this deadlock early"}},
	}
	// The sync-engine kernels at their test sizes.
	for _, k := range []kernels.Kernel{kernels.NewLockReduce(128, 4), kernels.NewPipeline(48, 2)} {
		for _, fab := range interconnect.Kinds {
			for _, kind := range dAndCentral {
				lockCells = append(lockCells, &cell{name: fmt.Sprintf("%s/%s/%s", k.Name(), fab, kind),
					k: k, kind: kind, fab: fab, cores: 8})
			}
		}
	}
	allCells = slices.Concat(matrixCells, specialCells, lockCells)
	for _, c := range allCells {
		cellNamed[c.name] = c
	}
}

// pick returns the matrix cells of fabs × kernel names × kinds.
func pick(fabs []interconnect.Kind, names []string, kinds ...barrier.Kind) (out []*cell) {
	for _, fab := range fabs {
		for _, name := range names {
			for _, kind := range kinds {
				out = append(out, cellNamed[fmt.Sprintf("%s/%s/%s", fab, name, kind)])
			}
		}
	}
	return out
}

func named(names ...string) (out []*cell) {
	for _, name := range names {
		out = append(out, cellNamed[name])
	}
	return out
}

// result is what a run leaves behind; it is also a golden entry.
type result struct {
	Cycles uint64            `json:"cycles"`
	Err    string            `json:"err,omitempty"` // run, build or verification error
	Stats  map[string]uint64 `json:"stats"`
	hash   hasher            // the event stream's, under a Probe knob
}

// hasher is the Probe knob's consumer: FNV-1a over every event's fields,
// packed into fixed 64-bit words, allocating nothing.
type hasher struct{ sum, events uint64 }

func (h *hasher) OnEvent(e mem.Event) {
	if h.events == 0 {
		h.sum = 14695981039346656037
	}
	h.events++
	words := [...]uint64{uint64(e.Kind) | uint64(uint8(e.Dest))<<8 | uint64(uint16(e.Size))<<16 | uint64(uint32(e.N))<<32,
		uint64(e.Core), e.Now, e.PC, e.Next, e.Addr, e.Value, e.Key}
	for _, v := range words {
		h.sum = (h.sum ^ v) * 1099511628211
	}
	if t := e.Txn; e.Kind == mem.EvMem {
		b := func(v bool, shift int) uint64 {
			if v {
				return 1 << shift
			}
			return 0
		}
		for _, v := range [...]uint64{uint64(t.Kind) | uint64(t.ReqKind)<<8 | b(t.Dirty, 16) | b(t.Prefetch, 17) |
			b(t.Exclusive, 18) | b(t.Err, 19), t.Addr, uint64(t.Core), t.ID} {
			h.sum = (h.sum ^ v) * 1099511628211
		}
	}
}

// simulate runs c once under k, applied on top of c's own configuration,
// with p, when non-nil, attached to the machine's event stream after k's
// checkers.
func simulate(c *cell, k knob, p mem.Probe) (result, *core.Machine) {
	cfg := core.DefaultConfig(c.cores)
	cfg.Mem.Fabric = c.fab
	for _, f := range []func(*core.Config){c.tweak, k.set} {
		if f != nil {
			f(&cfg)
		}
	}
	m := core.NewMachine(cfg)
	if k.attach != nil {
		k.attach(m)
	}
	if p != nil {
		m.Attach(p)
	}
	var prog *asm.Program
	var err error
	if c.seq {
		if prog, err = c.k.BuildSeq(); err == nil {
			m.Load(prog)
			m.StartSPMD(prog.Entry, 1)
		}
	} else {
		var gen barrier.Generator
		if gen, err = barrier.New(c.kind, c.cores, barrier.NewAllocator(cfg.Mem)); err == nil {
			if prog, err = c.k.BuildPar(gen, c.cores); err == nil {
				err = barrier.Launch(m, gen, prog, c.cores)
			}
		}
	}
	limit := uint64(500_000_000)
	if err == nil && c.stall {
		limit = 2_000_000
		_, _, err = m.Cores[c.cores-1].Deschedule()
	}
	if err != nil {
		return result{Err: "build: " + err.Error()}, nil
	}
	cycles, err := m.Run(limit)
	if err == nil {
		err = c.k.Verify(m.Sys.Mem, prog, c.cores) // the Go reference
	}
	r := result{Cycles: cycles, Stats: m.StatsReport().Snapshot()}
	if err != nil {
		r.Err = err.Error()
	}
	return r, m
}

// TestRebuildIsIdentical: a program is a function of its cell alone. Two
// builds of an hw-net and a filter-i cell, each from a fresh allocator, give
// byte-identical segments and event streams that hash alike, barrier ids
// included.
func TestRebuildIsIdentical(t *testing.T) {
	for _, c := range append(named("autcor-hwnet-8"), pick(bus, []string{"livermore2"}, barrier.KindFilterI)...) {
		var segs [2][]asm.Segment
		var hashes [2]hasher
		for i := range segs {
			gen, err := barrier.New(c.kind, c.cores, barrier.NewAllocator(core.DefaultConfig(c.cores).Mem))
			if err != nil {
				t.Fatal(err)
			}
			prog, err := c.k.BuildPar(gen, c.cores)
			if err != nil {
				t.Fatal(err)
			}
			segs[i] = prog.Segments
			if r, _ := simulate(c, knob{}, &hashes[i]); r.Err != "" {
				t.Fatalf("%s: %s", c.name, r.Err)
			}
		}
		if !reflect.DeepEqual(segs[0], segs[1]) {
			t.Errorf("%s: two builds differ in their segments", c.name)
		}
		if hashes[0] != hashes[1] {
			t.Errorf("%s: two runs hash to %#x and %#x", c.name, hashes[0].sum, hashes[1].sum)
		}
	}
}

// pinned reports whether a counter is simulated behaviour. translate.* are
// the host-side translation cache's own counters, absent when it is off,
// so no comparison and no golden entry looks at them.
func pinned(counter string) bool { return !strings.HasPrefix(counter, "translate.") }

// diff is the one comparison: "" when got reproduces want.
func diff(want, got result) string {
	if want.Err != got.Err {
		return fmt.Sprintf("error: want %q, got %q", want.Err, got.Err)
	}
	if want.Cycles != got.Cycles {
		return fmt.Sprintf("cycles: want %d, got %d", want.Cycles, got.Cycles)
	}
	show := func(s map[string]uint64, name string) string {
		if v, ok := s[name]; ok {
			return fmt.Sprint(v)
		}
		return "absent"
	}
	all := map[string]uint64{}
	maps.Copy(all, want.Stats)
	maps.Copy(all, got.Stats)
	var out []string
	for name := range all {
		if w, g := show(want.Stats, name), show(got.Stats, name); pinned(name) && w != g {
			out = append(out, fmt.Sprintf("%s: want %s, got %s", name, w, g))
		}
	}
	slices.Sort(out)
	return strings.Join(out, "; ")
}

// memo holds every memoised run of the process. It is a map, not simd's
// disk cache: -count=1 re-simulates.
var memo sync.Map

func memoised[T any](key any, f func() T) T {
	v, _ := memo.LoadOrStore(key, sync.OnceValue(f))
	return v.(func() T)()
}

// run is c under a knob, memoised.
func run(c *cell, knob string) result {
	return memoised([2]any{c, knob}, func() result {
		if !slices.Contains(strings.Split(knob, "+"), "Probe") {
			r, _ := simulate(c, knobs[knob], nil)
			return r
		}
		var h hasher
		r, _ := simulate(c, knobs[knob], &h)
		r.hash = h
		return r
	})
}

type goldenFile struct {
	Version int               `json:"version"`
	Cells   map[string]result `json:"cells"`
}

var golden = sync.OnceValues(func() (map[string]result, error) {
	var f goldenFile
	data, err := os.ReadFile(goldenPath)
	if err == nil {
		err = json.Unmarshal(data, &f)
	}
	if err == nil && f.Version != 2 {
		err = fmt.Errorf("%s is version %d, want 2", goldenPath, f.Version)
	}
	for key := range f.Cells {
		if c := cellNamed[key]; err == nil && (c == nil || !c.matrix) {
			err = fmt.Errorf("golden entry %s is not a matrix cell (kernel or mechanism removed?)", key)
		}
	}
	return f.Cells, err
})

// drive runs each cell as a subtest nested under its name's first element:
// the baseline must complete and verify (a stall cell must fail), a matrix
// cell must match its golden entry, and each knob named must reproduce it.
func drive(t *testing.T, cs []*cell, knobNames ...string) {
	for len(cs) > 0 {
		group, _, nested := strings.Cut(cs[0].name, "/")
		n := 1
		for nested && n < len(cs) && strings.HasPrefix(cs[n].name, group+"/") {
			n++
		}
		batch := cs[:n]
		t.Run(group, func(t *testing.T) {
			t.Parallel()
			if !nested {
				check(t, batch[0], knobNames)
				return
			}
			for _, c := range batch {
				t.Run(strings.TrimPrefix(c.name, group+"/"), func(t *testing.T) {
					t.Parallel()
					check(t, c, knobNames)
				})
			}
		})
		cs = cs[n:]
	}
}

func check(t *testing.T, c *cell, knobNames []string) {
	base := run(c, "")
	if (base.Err != "") != c.stall {
		t.Fatalf("baseline error %q (deadlock expected: %v)", base.Err, c.stall)
	}
	if c.matrix && !*updateGolden {
		if pins, err := golden(); err != nil {
			t.Fatal(err)
		} else if g, ok := pins[c.name]; !ok {
			t.Error("no golden entry: every matrix cell is pinned (see the driver's file comment)")
		} else if d := diff(g, base); d != "" {
			t.Errorf("golden: %s", d)
		}
	}
	for _, knob := range knobNames {
		if _, ok := knobs[knob]; !ok {
			t.Fatalf("no knob %q", knob)
		}
		if slices.ContainsFunc(strings.Split(knob, "+"), func(part string) bool { return c.skip[part] != "" }) {
			continue
		}
		got := run(c, knob)
		if d := diff(base, got); d != "" {
			t.Errorf("%s: %s", knob, d)
		}
		if got.hash == (hasher{}) {
			continue
		}
		if p := run(c, "Probe").hash; got.hash != p {
			t.Errorf("%s: %d events hash to %#x, Probe's %d to %#x", knob, got.hash.events, got.hash.sum, p.events, p.sum)
		}
	}
}

// TestDifferential is the driver: every cell under every single knob.
func TestDifferential(t *testing.T) {
	if *updateGolden { // cleanups run once every parallel cell is done
		t.Cleanup(func() {
			f := goldenFile{Version: 2, Cells: map[string]result{}}
			for _, c := range matrixCells {
				r := run(c, "")
				r.Stats = maps.Clone(r.Stats)
				maps.DeleteFunc(r.Stats, func(name string, _ uint64) bool { return !pinned(name) })
				f.Cells[c.name] = r
			}
			data, err := json.MarshalIndent(f, "", "  ")
			if err == nil {
				err = os.WriteFile(goldenPath, append(data, '\n'), 0o644)
			}
			if err != nil {
				t.Error(err)
			}
		})
	}
	drive(t, allCells, "NoTranslate", "NoFastPath", "Sanitize", "HB")
}

// The parent's differential tests, kept as views of the driver: after
// TestDifferential they re-read memoised runs and simulate nothing.

func TestBusFabricGolden(t *testing.T)           { drive(t, pick(bus, kernels.Names(), barrier.Kinds...)) }
func TestTranslateDifferential(t *testing.T)     { drive(t, matrixCells, "NoTranslate") }
func TestFastPathDifferentialSeq(t *testing.T)   { drive(t, named("livermore3-seq-1"), "NoFastPath") }
func TestFastPathDeadlockIdentical(t *testing.T) { drive(t, named("deadlock-filterD-4"), "NoFastPath") }
func TestLockKernelsAcrossFabrics(t *testing.T)  { drive(t, lockCells, "NoFastPath", "NoTranslate") }
func TestFastPathDifferential(t *testing.T) {
	drive(t, slices.Concat(specialCells, lockCells), "NoFastPath")
}
func TestTranslateDifferentialShort(t *testing.T) {
	drive(t, pick(bus, lv3Viterbi, dAndCentral...), "NoTranslate")
}
func TestKernelsOnOtherFabrics(t *testing.T) {
	drive(t, pick(otherFabrics, lv3Viterbi, dAndCentral...), "Sanitize")
}
func TestFastPathOnOtherFabrics(t *testing.T) {
	drive(t, pick(otherFabrics, []string{"microbench"}, barrier.KindFilterD), "NoFastPath")
}
func TestTranslateSanitizerDifferential(t *testing.T) {
	drive(t, named("bus/livermore3/filter-d", "bus/viterbi/sw-tree"), "Sanitize+NoTranslate")
}

// TestProbeDifferential: a probe attached changes nothing, and the event
// stream it sees is the same with the fast path or the translation cache
// off. Tier-1 runs one bus cell per kernel × mechanism and the special and
// lock cells; `make chaos` runs every cell (TestProbeMatrix).
func TestProbeDifferential(t *testing.T) {
	drive(t, slices.Concat(pick(bus, kernels.Names(), barrier.Kinds...), specialCells, lockCells), probeKnobs...)
}

// TestProbeFanOut attaches the hasher, hbcheck and the sanitizer at once:
// the fanned-out stream hashes as the hasher alone's does, run to run, and
// neither checker finds anything.
func TestProbeFanOut(t *testing.T) {
	for _, c := range named("lockreduce[n=128,passes=4]/bus/filter-d", "microbench-filterD-16") {
		var h hasher
		var s *sanitize.Sanitizer
		var hb *hbcheck.Checker
		r, _ := simulate(c, knob{attach: func(m *core.Machine) {
			s, hb = sanitize.Attach(m, sanitize.Default()), hbcheck.Attach(m, hbcheck.Config{})
		}}, &h)
		if d := diff(run(c, ""), r); d != "" {
			t.Errorf("%s: %s", c.name, d)
		}
		if p := run(c, "Probe").hash; h != p || h.events == 0 {
			t.Errorf("%s: fanned-out %d events hash to %#x, the hasher alone's %d to %#x", c.name, h.events, h.sum, p.events, p.sum)
		}
		if races, vs := hb.Races(), s.Violations(); len(races) != 0 || len(vs) != 0 {
			t.Errorf("%s: races %v, violations %v", c.name, races, vs)
		}
	}
	var h hasher
	if n := testing.AllocsPerRun(100, func() { h.OnEvent(mem.Event{Kind: mem.EvMem}) }); n != 0 {
		t.Errorf("the hasher allocates %v times per event", n)
	}
}

func TestSanitizerBehaviorInvariant(t *testing.T) {
	drive(t, named("microbench-filterD-16", "livermore2-swcentral-8", "viterbi-filterDPP-timeout-4"),
		"Sanitize", "Sanitize+NoFastPath")
}

// TestPaperShape checks Fig 4's orderings on every fabric and kernel, read
// off the memoised baselines; the synthetic rows show the check can fail.
func TestPaperShape(t *testing.T) {
	synthetic := map[barrier.Kind]uint64{barrier.KindSWCentral: 900, barrier.KindSWTree: 1000, barrier.KindHWNet: 100,
		barrier.KindFilterI: 300, barrier.KindFilterD: 200, barrier.KindFilterIPP: 250, barrier.KindFilterDPP: 400}
	if err := paperShape(synthetic); err != nil {
		t.Errorf("synthetic ordering rejected: %v", err)
	}
	// hw-net slower than filter-d; filter-d-pp no faster than sw-central.
	for kind, cycles := range map[barrier.Kind]uint64{barrier.KindHWNet: 201, barrier.KindFilterDPP: 900} {
		broken := maps.Clone(synthetic)
		broken[kind] = cycles
		if paperShape(broken) == nil {
			t.Errorf("synthetic %s=%d breaks an ordering, and paperShape missed it", kind, cycles)
		}
	}
	for _, fab := range interconnect.Kinds {
		for _, name := range kernels.Names() {
			if name == "lockreduce" {
				// Its time is the hardware lock's, not the barrier's: on the bus
				// sw-central (3,551 cycles) beats filter-i-pp (4,191).
				continue
			}
			cycles := map[barrier.Kind]uint64{}
			for _, c := range pick([]interconnect.Kind{fab}, []string{name}, barrier.Kinds...) {
				if r := run(c, ""); r.Err != "" {
					t.Fatalf("%s: %s", c.name, r.Err)
				} else {
					cycles[c.kind] = r.Cycles
				}
			}
			if err := paperShape(cycles); err != nil {
				t.Errorf("%s/%s: %v", fab, name, err)
			}
		}
	}
}

// paperShape holds when the dedicated network is no slower than any filter
// and every filter beats every software barrier.
func paperShape(cycles map[barrier.Kind]uint64) error {
	hw := cycles[barrier.KindHWNet]
	for _, f := range barrier.FilterKinds {
		if hw > cycles[f] {
			return fmt.Errorf("hw-net (%d cycles) is slower than %s (%d)", hw, f, cycles[f])
		}
		for _, s := range barrier.SoftwareKinds {
			if cycles[f] >= cycles[s] {
				return fmt.Errorf("%s (%d cycles) is not faster than %s (%d)", f, cycles[f], s, cycles[s])
			}
		}
	}
	return nil
}

func profiles(t *testing.T, names ...string) (out []faults.Profile) {
	for _, name := range names {
		p, ok := faults.ProfileByName(name)
		if !ok {
			t.Fatalf("unknown profile %q", name)
		}
		out = append(out, p)
	}
	return out
}

// chaosOptions names the shared RunChaos matrices: the standard one, seed 7
// over one profile per injector class, two sanitizer slices, a fabric's.
func chaosOptions(t *testing.T, matrix string) harness.ChaosOptions {
	o := harness.DefaultChaosOptions()
	switch matrix {
	case "default":
	case "replay": // at one worker: the sequential loop the Workers variants must match
		o.Seed, o.Workers, o.Profiles = 7, 1, profiles(t, "bus-delay", "ack-drop", "preempt", "monsoon")
	case "state-flip":
		o.Seed, o.Kinds = 7, []barrier.Kind{barrier.KindFilterD}
		o.Profiles = []faults.Profile{{Name: "state-flip", StateFlipEvery: 2_000}}
	case "starvation":
		o.Seed, o.Kinds, o.Sanitize = 3, []barrier.Kind{barrier.KindFilterD}, true
		o.Profiles = profiles(t, "ack-drop", "monsoon")
	default:
		fab, err := interconnect.ParseKind(matrix)
		if err != nil {
			t.Fatal(err)
		}
		o.Fabric, o.Kinds = fab, []barrier.Kind{barrier.KindFilterD}
		o.Profiles = profiles(t, "none", "bus-delay", "bus-reorder", "monsoon")
	}
	return o
}

// chaosVariants must reproduce each chaos baseline cell for cell (its table
// is a function of the cells): no knob here may move one injected cycle.
var chaosVariants = map[string]func(*harness.ChaosOptions){
	"Workers=4":             func(o *harness.ChaosOptions) { o.Workers = 4 },
	"Workers=4+NoFastPath":  func(o *harness.ChaosOptions) { o.Workers, o.NoFastPath = 4, true },
	"Workers=4+NoTranslate": func(o *harness.ChaosOptions) { o.Workers, o.NoTranslate = 4, true },
}

// chaos is one memoised RunChaos; variant "" is the baseline.
func chaos(t *testing.T, matrix, variant string, set func(*harness.ChaosOptions)) []harness.ChaosCell {
	t.Helper()
	type out struct {
		cells []harness.ChaosCell
		err   error
	}
	opt := chaosOptions(t, matrix)
	if set != nil {
		set(&opt)
	}
	r := memoised(matrix+"/"+variant, func() (r out) {
		r.cells, r.err = harness.RunChaos(opt)
		return r
	})
	if r.err != nil {
		t.Fatalf("chaos %s %s: contract violated: %v", matrix, variant, r.err)
	}
	return r.cells
}

// chaosPinMu serialises pinChaos's read-modify-write of the chaos golden.
var chaosPinMu sync.Mutex

// pinChaos compares a chaos matrix's cells, every field and the Report byte
// for byte, with its chaos_golden.json entry, or rewrites that entry under
// -update-golden. Simulated chaos output reaches simd's content-addressed
// result bytes and journals, so a diff here is a behaviour change.
func pinChaos(t *testing.T, matrix string, cells []harness.ChaosCell) {
	t.Helper()
	chaosPinMu.Lock()
	defer chaosPinMu.Unlock()
	pins := map[string][]harness.ChaosCell{}
	data, err := os.ReadFile(chaosGoldenPath)
	if err == nil {
		err = json.Unmarshal(data, &pins)
	}
	if *updateGolden {
		pins[matrix] = cells
		if data, err = json.MarshalIndent(pins, "", "  "); err == nil {
			err = os.WriteFile(chaosGoldenPath, append(data, '\n'), 0o644)
		}
		if err != nil {
			t.Error(err)
		}
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	want, ok := pins[matrix]
	if !ok {
		t.Fatalf("chaos golden: no entry %q", matrix)
	}
	if len(want) != len(cells) {
		t.Fatalf("chaos golden %s: %d cells, pinned %d", matrix, len(cells), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(want[i], cells[i]) {
			t.Errorf("chaos golden %s cell %d:\nwant %+v\ngot  %+v", matrix, i, want[i], cells[i])
		}
	}
}

// chaosDiffer holds the variants named like filter to a chaos baseline.
func chaosDiffer(t *testing.T, matrix, filter string) {
	for name, set := range chaosVariants {
		if strings.Contains(name, filter) && !reflect.DeepEqual(chaos(t, matrix, "", nil), chaos(t, matrix, name, set)) {
			t.Errorf("chaos %s: %s diverged from the baseline", matrix, name)
		}
	}
}

// TestChaosReplayInvariance: a chaos matrix is a pure function of its seed.
func TestChaosReplayInvariance(t *testing.T) {
	chaosDiffer(t, "replay", "")
	if reflect.DeepEqual(chaos(t, "replay", "", nil), chaos(t, "replay", "Seed=8", func(o *harness.ChaosOptions) { o.Seed, o.Workers = 8, 4 })) {
		t.Error("different seeds produced an identical matrix")
	}
}

func TestTranslateChaosDifferential(t *testing.T) { chaosDiffer(t, "default", "NoTranslate") }

// chaosContract holds a cell to its two outcomes: results bit-identical to
// the fault-free run (directly or "degraded" to the software barrier), or
// an attributed fault; a hang or silent corruption already fails RunChaos.
func chaosContract(t *testing.T, c harness.ChaosCell) {
	t.Helper()
	switch c.Outcome {
	case "identical":
	case "degraded", "fault":
		if c.Report == "" {
			t.Errorf("%s/%s/%s: %s outcome with no attribution", c.Kernel, c.Kind, c.Profile, c.Outcome)
		}
	default:
		t.Errorf("%s/%s/%s: unknown outcome %q", c.Kernel, c.Kind, c.Profile, c.Outcome)
	}
	if c.Profile == "none" && (c.Outcome != "identical" || c.Injected != 0 || c.Attempts != 1) {
		t.Errorf("%s/%s: baseline cell not clean: outcome=%s injected=%d attempts=%d", c.Kernel, c.Kind, c.Outcome, c.Injected, c.Attempts)
	}
}

// TestChaosDifferential: every kernel under every fault profile.
func TestChaosDifferential(t *testing.T) {
	cells := chaos(t, "default", "", nil)
	pinChaos(t, "default", cells)
	outcomes := map[string]int{}
	for _, c := range cells {
		chaosContract(t, c)
		outcomes[c.Outcome]++
	}
	if outcomes["identical"] == 0 || outcomes["identical"] == len(cells) {
		t.Errorf("outcomes %v over %d cells: injectors too hot to mean anything, or not injecting", outcomes, len(cells))
	}
}

// TestChaosOnOtherFabrics: the contract holds when the faults ride crossbar
// ports, mesh links and waveguides instead of the bus.
func TestChaosOnOtherFabrics(t *testing.T) {
	for _, fab := range otherFabrics {
		t.Run(fab.String(), func(t *testing.T) {
			injected := uint64(0)
			cells := chaos(t, fab.String(), "", nil)
			pinChaos(t, fab.String(), cells)
			for _, c := range cells {
				chaosContract(t, c)
				injected += c.Injected
			}
			if injected == 0 {
				t.Error("no faults injected: the link-site injectors are dead")
			}
		})
	}
}

// TestChaosLockKernel points the injectors at the hardware lock: a forced
// eviction may fault an acquire or free the lock early, never break mutual
// exclusion (corruption fails RunChaosCell) nor wedge past the budget.
func TestChaosLockKernel(t *testing.T) {
	k := kernels.NewLockReduce(256, 64) // ~100k+ cycles: the 6k-cycle lock evictor fires many times
	var cells []harness.ChaosCell
	for _, p := range profiles(t, "none", "lock-evict", "lock-preempt", "forced-evict", "alloc-flood") {
		c, err := harness.RunChaosCell(k, barrier.KindFilterD, p, faults.MixSeed(11, 0xA0), 8, harness.DefaultChaosOptions().Options)
		cells = append(cells, c)
		if err != nil {
			t.Errorf("%s: chaos contract violated: %v", p.Name, err)
			continue
		}
		chaosContract(t, c)
		if p.Name == "lock-evict" && c.Injected == 0 {
			t.Error("lock-evict: no lock evictions injected — the lock source is not wired")
		}
	}
	pinChaos(t, "lock", cells)
}

// The sanitizer's other half (the Sanitize knobs are the first): a wedged
// machine yields a named violation, not an anonymous deadlock. With the
// watchdog armed the deadlock cell stops early, identically with the fast
// path on and off, finding every waiter legitimately blocked.
func TestSanitizerWatchdogNamesStalledBarrier(t *testing.T) {
	watch := func(noFastPath bool) (result, []sanitize.Violation) {
		var s *sanitize.Sanitizer
		r, _ := simulate(cellNamed["deadlock-filterD-4"], knob{
			set:    func(cfg *core.Config) { cfg.NoFastPath = noFastPath },
			attach: func(m *core.Machine) { s = sanitize.Attach(m, &sanitize.Config{StallBudget: 50_000}) },
		}, nil)
		return r, s.Violations()
	}
	fast, vs := watch(false)
	if slow, _ := watch(true); diff(fast, slow) != "" {
		t.Fatalf("fast path on vs off: %s", diff(fast, slow))
	}
	if len(vs) == 0 {
		t.Fatal("watchdog never fired on a deadlocked barrier")
	}
	if v := vs[0]; v.Invariant != "liveness.barrier-stall" {
		t.Fatalf("invariant %q, want liveness.barrier-stall (every waiter is legitimately blocked)", v.Invariant)
	}
	for _, want := range []string{"blocked on barrier", "legitimate wait", "waiting on threads [3]"} {
		if !strings.Contains(vs[0].Detail, want) {
			t.Fatalf("stall report missing %q:\n%s", want, vs[0].Detail)
		}
	}
	if fast.Cycles >= 2_000_000 {
		t.Fatalf("watchdog stopped only at the cycle limit (%d cycles)", fast.Cycles)
	}
	if !strings.Contains(fast.Err, "liveness.barrier-stall") {
		t.Fatalf("run error does not carry the violation: %q", fast.Err)
	}
}

// TestSanitizerChaosStateFlip: the caches are timing-only, so an S->M tag
// flip never corrupts results and without the sanitizer every cell is
// "identical"; with it the same seed yields a fault naming the breached MSI
// invariant (phantom-modified or modified-shared) and the line, core, bank.
func TestSanitizerChaosStateFlip(t *testing.T) {
	flipped := false
	for _, c := range chaos(t, "state-flip", "", nil) {
		if c.Outcome != "identical" {
			t.Fatalf("%s/%s: outcome %q without sanitizer, want identical (flips are timing-only)", c.Kernel, c.Profile, c.Outcome)
		}
		flipped = flipped || c.Injected > 0
	}
	if !flipped {
		t.Fatal("state-flip profile injected nothing; the contrast below is vacuous")
	}
	on := chaos(t, "state-flip", "Sanitize", func(o *harness.ChaosOptions) { o.Sanitize = true })
	if !slices.ContainsFunc(on, func(c harness.ChaosCell) bool {
		return c.Outcome == "fault" && strings.Contains(c.Report, "sanitize:") &&
			strings.Contains(c.Report, "msi.") && strings.Contains(c.Report, "state-flip")
	}) {
		for _, c := range on {
			t.Logf("%s/%s: %s\n%s", c.Kernel, c.Profile, c.Outcome, c.Report)
		}
		t.Fatal("no cell attributed the S->M flip to an msi.* invariant")
	}
}

// TestSanitizerChaosAttributesDeadlocks: under the starvation profiles a
// failing cell must carry a real attribution, never the bare "cycle limit
// exceeded" of a lost transaction burning the whole budget.
func TestSanitizerChaosAttributesDeadlocks(t *testing.T) {
	for _, c := range chaos(t, "starvation", "", nil) {
		switch c.Outcome {
		case "identical", "degraded":
		case "fault":
			if !strings.Contains(c.Report, "sanitize:") && !strings.Contains(c.Report, "filter") {
				t.Errorf("%s/%s: fault without attribution:\n%s", c.Kernel, c.Profile, c.Report)
			}
			if strings.Contains(c.Report, "cycle limit") && !strings.Contains(c.Report, "sanitize:") {
				t.Errorf("%s/%s: unattributed cycle-limit deadlock survived the watchdog:\n%s", c.Kernel, c.Profile, c.Report)
			}
		default:
			t.Errorf("%s/%s: unknown outcome %q", c.Kernel, c.Profile, c.Outcome)
		}
	}
}
