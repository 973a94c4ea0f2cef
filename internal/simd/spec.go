// Package simd is the simulation-as-a-service layer: a crash-resilient,
// backpressured HTTP/JSON server that accepts experiment specs (kernel,
// barrier mechanism, interconnect fabric, thread count, seeds, chaos
// profile, deadlines), validates them up front, runs the resulting cells on
// the harness's ordered Runner under a server-wide slot bound, and streams
// per-cell progress as NDJSON.
//
// Robustness is the design center:
//
//   - Specs are validated before admission — a size-capped decoder that
//     refuses unknown fields, constant bounds on kernel sizes checked before
//     any kernel is constructed, core.Config.Validate for the machine
//     geometry and the srvet static verifier (package vet) for every
//     kernel × mechanism program — so a malformed, oversized or vet-failing
//     spec is a structured 400, never a handler or worker panic.
//   - Results are content-addressed: the simulator is deterministic, so an
//     identical cell spec hashes to identical result bytes. The cache serves
//     repeats for free and doubles as a regression oracle — a recomputation
//     that disagrees with the cached bytes is a detected simulator regression.
//   - Sweeps journal through the harness's crash-resilient JSONL journal
//     (spec-hash header, strict cell order, line-by-line sync, a checksum
//     per line): a kill -9 mid-sweep resumes to byte-identical results on
//     resubmission, and a record damaged on disk is re-simulated, never
//     replayed.
//   - Admission control bounds memory under overload: a full house sheds
//     the queued sweep with the oldest queue deadline, else answers 429
//     with Retry-After.
//
// The service is one node: a sweep's cells all run in the process that
// journals it. harness.Runner.Resolve is where a result computed elsewhere
// (today: a journal replay, a cache hit) enters a sweep.
package simd

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/barrier"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/harness"
	"repro/internal/interconnect"
	"repro/internal/kernels"
	"repro/internal/vet"
)

// Spec is the wire format of a sweep request: the cross product of
// kernels × mechanisms × chaos profiles × seeds, at one machine shape.
type Spec struct {
	// Kernels are registry names (kernels.Names()); required.
	Kernels []string `json:"kernels"`
	// N and Loops are the generic kernel sizing knobs; non-positive
	// values pick each kernel's default.
	N     int `json:"n,omitempty"`
	Loops int `json:"loops,omitempty"`
	// Mechanisms are barrier kinds as printed by barrier.Kind.String
	// (default: filter-d).
	Mechanisms []string `json:"mechanisms,omitempty"`
	// Fabric is the interconnect: bus, xbar (or crossbar), mesh, or optical
	// (default bus). Normalize rewrites it to the canonical spelling, so
	// both spellings of one machine share cache and journal keys.
	Fabric string `json:"fabric,omitempty"`
	// Threads is the SPMD thread count per cell (default 8). Profiles
	// that preempt get one spare core on top, as in the chaos harness.
	Threads int `json:"threads,omitempty"`
	// Seeds are chaos master seeds, one cell per seed (default: [1]).
	Seeds []uint64 `json:"seeds,omitempty"`
	// Chaos are fault-injection profile names (faults.ProfileNames();
	// default: ["none"], the fault-free run).
	Chaos []string `json:"chaos,omitempty"`
	// MaxCycles bounds the simulated cycles of each cell across all
	// fallback attempts (default 2,000,000).
	MaxCycles uint64 `json:"max_cycles,omitempty"`
	// Sanitize runs the online invariant sanitizer on every machine.
	Sanitize bool `json:"sanitize,omitempty"`
	// FilterCap overrides the per-bank barrier-filter table entry
	// capacity (0 = the machine default). Allocations that overflow it
	// spill to the software barrier and are attributed as
	// filter.overflow_spills, so shrinking it changes result bytes.
	FilterCap int `json:"filtercap,omitempty"`

	// The fields below never change a result byte, so they are excluded
	// from both the sweep hash and every cell hash.

	// DeadlineMS is the wall-clock budget per cell; 0 means none. Cells
	// over budget report status "timeout" with their last-progress cycle.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// QueueDeadlineMS bounds how long the sweep may wait for its first
	// worker slot; an overloaded server sheds expired sweeps first.
	QueueDeadlineMS int64 `json:"queue_deadline_ms,omitempty"`
	// NoFastPath disables the simulator's quiescent-core fast path and
	// NoTranslate its translation cache (differential knobs). Both are
	// behaviour-invariant, which the content-addressed cache checks: a
	// perturbed simulator must still produce byte-identical results.
	NoFastPath  bool `json:"nofastpath,omitempty"`
	NoTranslate bool `json:"notranslate,omitempty"`
	// Recompute forces re-simulation of cells the cache already holds;
	// each fresh result is then oracle-checked against the cached bytes.
	// Combined with the perturbation knobs above, this is the regression
	// workflow: run once normally, run again with recompute+nofastpath,
	// and any byte of divergence is a detected simulator regression.
	Recompute bool `json:"recompute,omitempty"`
}

// Error is the structured error the server returns for rejected requests
// and failed sweeps.
type Error struct {
	// Code: bad-spec | bad-kernel | bad-mechanism | bad-fabric |
	// bad-chaos | bad-machine | vet | too-large | overload | shed |
	// canceled | internal.
	Code   string `json:"code"`
	Field  string `json:"field,omitempty"`
	Detail string `json:"detail"`
}

func (e *Error) Error() string {
	if e.Field != "" {
		return fmt.Sprintf("simd: %s (%s): %s", e.Code, e.Field, e.Detail)
	}
	return fmt.Sprintf("simd: %s: %s", e.Code, e.Detail)
}

func errf(code, field, format string, args ...any) *Error {
	return &Error{Code: code, Field: field, Detail: fmt.Sprintf(format, args...)}
}

// Cell is one fully resolved simulation: the unit of execution, caching
// and journaling.
type Cell struct {
	Index     int    // position in the sweep (journal and stream order)
	Key       string // stable human-readable key: kernel/mechanism/profile/s<seed>
	Hash      string // content hash of the cell identity (the cache key)
	Kernel    string
	N         int
	Loops     int
	Kind      barrier.Kind
	Fabric    interconnect.Kind
	Threads   int
	Profile   faults.Profile
	Seed      uint64
	MaxCycles uint64
	Sanitize  bool
	FilterCap int

	// Runtime knobs, never part of Hash.
	Deadline    time.Duration
	NoFastPath  bool
	NoTranslate bool
}

// cellID is the canonical, hashed identity of a cell: every field that can
// change a result byte, and none that cannot.
type cellID struct {
	Kernel    string `json:"kernel"`
	N         int    `json:"n"`
	Loops     int    `json:"loops"`
	Mechanism string `json:"mechanism"`
	Fabric    string `json:"fabric"`
	Threads   int    `json:"threads"`
	Profile   string `json:"profile"`
	Seed      uint64 `json:"seed"`
	MaxCycles uint64 `json:"max_cycles"`
	Sanitize  bool   `json:"sanitize"`
	FilterCap int    `json:"filtercap"`
}

// Sweep is a validated, normalized spec with its cells expanded.
type Sweep struct {
	Spec  Spec   // normalized: every defaultable field filled in
	Hash  string // content hash over the behavior-affecting identity
	Cells []Cell
}

// hashJSON content-addresses any canonical JSON-marshalable identity.
func hashJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("simd: hashing unmarshalable identity: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Limits bounds what Normalize accepts.
type Limits struct {
	MaxCells   int    // maximum cells per sweep
	MaxThreads int    // maximum SPMD threads per cell
	MaxCycles  uint64 // maximum per-cell simulated-cycle budget
}

// maxKernelSize bounds Spec.N and Spec.Loops. Kernel constructors allocate
// their operands (O(n), some O(n·loops)) before any cycle budget applies,
// so an absurd size must be a 400 before anything is built, not an
// allocation. It is a constant rather than a Limit because no deployment
// has a reason to differ: Table 1 and Figures 6–10 top out at N = 1024, and
// the parked 1024-core cells need 8 doubles × 1024 threads = 8192.
const maxKernelSize = 1 << 14

// DefaultLimits returns the server defaults.
func DefaultLimits() Limits {
	return Limits{MaxCells: 4096, MaxThreads: 256, MaxCycles: 2_000_000_000}
}

// Normalize validates a spec against the limits, fills in defaults, vets
// every kernel × mechanism program with the static verifier, and expands
// the cell cross product. Every rejection is a structured *Error; nothing
// about a spec that passes Normalize can panic a worker later for
// configuration reasons.
func Normalize(spec Spec, lim Limits) (*Sweep, *Error) {
	if len(spec.Kernels) == 0 {
		return nil, errf("bad-spec", "kernels", "at least one kernel is required (have %v)", kernels.Names())
	}
	if len(spec.Mechanisms) == 0 {
		spec.Mechanisms = []string{barrier.KindFilterD.String()}
	}
	if len(spec.Seeds) == 0 {
		spec.Seeds = []uint64{1}
	}
	if len(spec.Chaos) == 0 {
		spec.Chaos = []string{"none"}
	}
	// Each axis lists distinct values: a repeat would expand into cells
	// sharing one key, and the journal and the stream identify cells by key.
	if v, ok := repeated(spec.Kernels); ok {
		return nil, errf("bad-spec", "kernels", "kernel %q listed twice", v)
	}
	if v, ok := repeated(spec.Mechanisms); ok {
		return nil, errf("bad-spec", "mechanisms", "mechanism %q listed twice", v)
	}
	if v, ok := repeated(spec.Chaos); ok {
		return nil, errf("bad-spec", "chaos", "chaos profile %q listed twice", v)
	}
	if v, ok := repeated(spec.Seeds); ok {
		return nil, errf("bad-spec", "seeds", "seed %d listed twice", v)
	}
	if spec.Threads == 0 {
		spec.Threads = 8
	}
	if spec.Threads < 2 || spec.Threads > lim.MaxThreads {
		return nil, errf("bad-spec", "threads", "threads %d out of range [2, %d]", spec.Threads, lim.MaxThreads)
	}
	if spec.MaxCycles == 0 {
		spec.MaxCycles = 2_000_000
	}
	if spec.MaxCycles > lim.MaxCycles {
		return nil, errf("bad-spec", "max_cycles", "max_cycles %d over the server limit %d", spec.MaxCycles, lim.MaxCycles)
	}
	if spec.DeadlineMS < 0 || spec.QueueDeadlineMS < 0 {
		return nil, errf("bad-spec", "deadline_ms", "deadlines must be non-negative")
	}
	if spec.FilterCap < 0 {
		return nil, errf("bad-spec", "filtercap", "filtercap %d is negative", spec.FilterCap)
	}
	if spec.N > maxKernelSize {
		return nil, errf("bad-spec", "n", "n %d over the fixed bound %d", spec.N, maxKernelSize)
	}
	if spec.Loops > maxKernelSize {
		return nil, errf("bad-spec", "loops", "loops %d over the fixed bound %d", spec.Loops, maxKernelSize)
	}
	if spec.Fabric == "" {
		spec.Fabric = interconnect.KindBus.String()
	}
	fabric, err := interconnect.ParseKind(spec.Fabric)
	if err != nil {
		return nil, errf("bad-fabric", "fabric", "%v", err)
	}
	spec.Fabric = fabric.String()

	kinds := make([]barrier.Kind, len(spec.Mechanisms))
	for i, m := range spec.Mechanisms {
		k, err := barrier.ParseKind(m)
		if err != nil {
			return nil, errf("bad-mechanism", "mechanisms", "%v", err)
		}
		kinds[i] = k
	}
	profiles := make([]faults.Profile, len(spec.Chaos))
	for i, name := range spec.Chaos {
		p, ok := faults.ProfileByName(name)
		if !ok {
			return nil, errf("bad-chaos", "chaos", "unknown chaos profile %q (have %v)", name, faults.ProfileNames())
		}
		profiles[i] = p
	}

	// Machine geometry: validate the exact configuration each profile's
	// cells will build (harness.ChaosConfig: the spare core preempting
	// profiles migrate onto, a profile's own filter capacity), so a bad
	// shape is a 400 here, not an ErrConfig panic in a worker.
	for _, p := range profiles {
		cfg := harness.ChaosConfig(p, spec.Threads, harness.Options{Fabric: fabric, FilterCap: spec.FilterCap})
		if err := cfg.Validate(); err != nil {
			return nil, errf("bad-machine", "threads", "%d-core %s machine: %v", cfg.Cores, fabric, err)
		}
	}

	nCells := len(spec.Kernels) * len(kinds) * len(profiles) * len(spec.Seeds)
	if nCells > lim.MaxCells {
		return nil, errf("too-large", "", "%d cells exceed the per-sweep limit %d", nCells, lim.MaxCells)
	}

	// Build and vet every kernel × mechanism program once up front. The
	// static verifier rejects broken barrier protocols and dataflow bugs
	// that the simulator would only expose as a hang or silent corruption
	// millions of cycles later.
	memCfg := core.DefaultConfig(spec.Threads).Mem
	memCfg.Fabric = fabric
	for _, name := range spec.Kernels {
		k, err := kernels.New(name, spec.N, spec.Loops)
		if err != nil {
			return nil, errf("bad-kernel", "kernels", "%v", err)
		}
		for _, kind := range kinds {
			alloc := barrier.NewAllocator(memCfg)
			gen, err := barrier.New(kind, spec.Threads, alloc)
			if err != nil {
				return nil, errf("bad-mechanism", "mechanisms", "%s generator at %d threads: %v", kind, spec.Threads, err)
			}
			prog, err := k.BuildPar(gen, spec.Threads)
			if err != nil {
				return nil, errf("bad-kernel", "kernels", "building %s/%s: %v", name, kind, err)
			}
			if err := vet.AsError(fmt.Sprintf("%s/%s", name, kind), vet.Check(prog, vet.Options{Threads: spec.Threads})); err != nil {
				return nil, errf("vet", "kernels", "%v", err)
			}
		}
	}

	sw := &Sweep{Spec: spec}
	deadline := time.Duration(spec.DeadlineMS) * time.Millisecond
	for _, name := range spec.Kernels {
		for ki, kind := range kinds {
			for _, p := range profiles {
				for _, seed := range spec.Seeds {
					c := Cell{
						Index:  len(sw.Cells),
						Key:    fmt.Sprintf("%s/%s/%s/s%d", name, kind, p.Name, seed),
						Kernel: name,
						N:      spec.N, Loops: spec.Loops,
						Kind: kind, Fabric: fabric,
						Threads: spec.Threads, Profile: p, Seed: seed,
						MaxCycles: spec.MaxCycles, Sanitize: spec.Sanitize,
						FilterCap:  spec.FilterCap,
						Deadline:   deadline,
						NoFastPath: spec.NoFastPath, NoTranslate: spec.NoTranslate,
					}
					c.Hash = hashJSON(cellID{
						Kernel: c.Kernel, N: c.N, Loops: c.Loops,
						Mechanism: spec.Mechanisms[ki], Fabric: spec.Fabric,
						Threads: c.Threads, Profile: p.Name, Seed: seed,
						MaxCycles: c.MaxCycles, Sanitize: c.Sanitize,
						FilterCap: c.FilterCap,
					})
					sw.Cells = append(sw.Cells, c)
				}
			}
		}
	}
	sw.Hash = hashJSON(struct {
		Kernels    []string `json:"kernels"`
		N          int      `json:"n"`
		Loops      int      `json:"loops"`
		Mechanisms []string `json:"mechanisms"`
		Fabric     string   `json:"fabric"`
		Threads    int      `json:"threads"`
		Seeds      []uint64 `json:"seeds"`
		Chaos      []string `json:"chaos"`
		MaxCycles  uint64   `json:"max_cycles"`
		Sanitize   bool     `json:"sanitize"`
		FilterCap  int      `json:"filtercap"`
	}{spec.Kernels, spec.N, spec.Loops, spec.Mechanisms, spec.Fabric,
		spec.Threads, spec.Seeds, spec.Chaos, spec.MaxCycles, spec.Sanitize,
		spec.FilterCap})
	return sw, nil
}

// repeated returns a value that occurs more than once in xs.
func repeated[T comparable](xs []T) (T, bool) {
	seen := make(map[T]struct{}, len(xs))
	for _, x := range xs {
		if _, dup := seen[x]; dup {
			return x, true
		}
		seen[x] = struct{}{}
	}
	var zero T
	return zero, false
}

// SpecString renders the canonical journal spec for the sweep (the string
// whose hash the journal header guards).
func (sw *Sweep) SpecString() string { return "simd sweep " + sw.Hash }
