// Package vet is a static analyzer for assembled SRISC programs: the
// compile-time complement to the runtime invariant sanitizer (package
// sanitize). It decodes a program's text segment, builds a per-thread
// control-flow graph, runs classic dataflow over it (reaching definitions /
// use-before-def on both register files, reachability / dead code), and
// layers two SPMD-specific passes on top:
//
//   - A barrier-protocol state machine. The paper's barrier filter only
//     works if every thread executes the exact arrival protocol — drain
//     pending stores with a fence, invalidate its own arrival address, then
//     load (D-filter) or jump to (I-filter) that same address to stall.
//     The pass walks every path to a barrier and diagnoses missing fences,
//     invalidating another thread's slot, loading before invalidating,
//     stores that land on a filter-watched line, and a missing IFLUSH
//     between an I-cache arrival invalidation and its stall jump.
//
//   - An abstract interpretation of memory operands over the affine domain
//     value = base + coef·tid, checking the data-partition discipline the
//     kernels rely on: between barriers a thread writes only its own
//     tid-strided partition, so a store that provably escapes its
//     partition cell — or that all threads provably aim at one shared data
//     address without a thread-id guard — is a static race.
//
// All checks are "must" analyses: a diagnostic is only reported when the
// violation is provable along some path with statically known addresses.
// Unknown (widened) values stay silent, so every shipped kernel × barrier
// mechanism vets clean while each misuse pattern in Corpus is caught.
package vet

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/asm"
)

// Code identifies one diagnostic class.
type Code string

// The diagnostic codes vet can report.
const (
	// CodeUseBeforeDef: a register is read on some path before any
	// instruction defines it (loader-defined registers: x0, sp, a0, a1).
	CodeUseBeforeDef Code = "use-before-def"
	// CodeDeadCode: a non-padding instruction is unreachable from the
	// program entry and from every resolved stall-stub.
	CodeDeadCode Code = "dead-code"
	// CodeMissingFence: a barrier arrival/exit invalidation executes while
	// stores issued since the last FENCE may still be pending.
	CodeMissingFence Code = "missing-fence"
	// CodeWrongSlotInval: the invalidated arrival line is provably not the
	// line this thread stalls on (another thread's slot), or all threads
	// invalidate one shared line.
	CodeWrongSlotInval Code = "wrong-slot-invalidate"
	// CodeLoadBeforeInval: a thread loads its barrier arrival line before
	// invalidating it, so the load cannot be starved and the thread runs
	// through the barrier.
	CodeLoadBeforeInval Code = "load-before-invalidate"
	// CodeStoreToArrival: a store targets a filter-watched arrival or exit
	// line; stores corrupt the filter's starvation protocol.
	CodeStoreToArrival Code = "store-to-arrival-line"
	// CodeCrossPartitionStore: a store provably escapes the thread's own
	// data partition (or aims all threads at one shared address without a
	// thread-id guard) within one barrier-delimited phase — a static data
	// race.
	CodeCrossPartitionStore Code = "cross-partition-store"
	// CodeDynPartitionOverlap: two stores with data-dependent but bounded
	// addresses (dynamic partitions) can write overlapping bytes from
	// distinct threads within one phase.
	CodeDynPartitionOverlap Code = "dyn-partition-overlap"
	// CodeStoreLoadRace: a store and a load with exact addresses touch
	// overlapping bytes from distinct threads within one phase.
	CodeStoreLoadRace Code = "store-load-race"
	// CodeMissingIFlush: an I-cache arrival invalidation is not followed
	// by an IFLUSH before the stall jump, so prefetched stub instructions
	// may let the thread run through the barrier.
	CodeMissingIFlush Code = "missing-iflush"
	// CodeLoadBeforeAcquire: a thread loads a hardware lock line without
	// invalidating it first. The acquire protocol is dcbi-then-ld — the
	// dcbi queues the thread at the bank's lock table and the (starved)
	// load completes at the grant; the bank faults demand loads from
	// threads that never queued.
	CodeLoadBeforeAcquire Code = "load-before-acquire"
	// CodeMissingRelease: a path still holds a hardware lock at a barrier
	// stall or at halt. Waiters parked on the lock can then never arrive
	// at the barrier (or finish), so the program deadlocks.
	CodeMissingRelease Code = "missing-release"
	// CodeBadOpcode: a reachable instruction word does not decode.
	CodeBadOpcode Code = "bad-opcode"
	// CodeFallOffEnd: a reachable path runs past the end of the text
	// segment without HALT.
	CodeFallOffEnd Code = "fall-off-end"
	// CodeBadBranch: a reachable branch targets an address outside the
	// text segment or not on an instruction boundary.
	CodeBadBranch Code = "bad-branch-target"
	// CodeNoText: the program entry lies outside every loaded segment.
	CodeNoText Code = "no-text"
)

// Diagnostic is one finding, attributed to an instruction.
type Diagnostic struct {
	Code  Code
	Addr  uint64 // instruction address
	Pos   string // label+offset position from the program's marks
	Phase int    // barrier-delimited phase id, -1 when not applicable
	Msg   string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s (%#x): %s: %s", d.Pos, d.Addr, d.Code, d.Msg)
}

// Options tunes a Check run.
type Options struct {
	// Threads is the SPMD thread count the program will run with
	// (minimum 1). Thread-dependent checks (wrong slot, shared stores)
	// need it to expand affine footprints.
	Threads int

	// AffineOnly restores the v1 exact-affine domain: joins collapse any
	// disagreement to Top and the interval rules (masking, bound
	// narrowing, widening) are disabled. Kept as the cost/precision
	// baseline for the benchmark guard and differential tests.
	AffineOnly bool
}

func (o Options) withDefaults() Options {
	if o.Threads < 1 {
		o.Threads = 1
	}
	if o.Threads > maxThreads {
		o.Threads = maxThreads
	}
	return o
}

// lineBytes is the cache line size filter regions are granular to. The
// verifier checks programs against core's standard memory map: addresses in
// [core.BarrierRegion, core.LockRegion) follow the barrier protocol, those
// at or above core.LockRegion the lock protocol (acquire grants are
// mutual-exclusion edges, not phase boundaries), and [core.DataBase,
// core.StackRegion) is the static data region of the partition discipline.
const lineBytes = 64

// maxThreads caps footprint expansion so hostile inputs cannot make Check
// quadratic in an attacker-chosen count.
const maxThreads = 1024

// Report is the full analysis result: the diagnostics plus the per-phase
// race certificates (advisory; a clean Diags slice is the gate, the
// certificates say how much of the phase structure was actually proved).
type Report struct {
	Diags  []Diagnostic
	Phases []PhaseInfo
}

// Check vets a linked program and returns its diagnostics, most severe
// first (stable order: by code class, then address). A nil or empty result
// means the program passed every check.
func Check(p *asm.Program, opt Options) []Diagnostic {
	return Analyze(p, opt).Diags
}

// Analyze vets a linked program and returns the diagnostics together with
// the phase certificates.
func Analyze(p *asm.Program, opt Options) *Report {
	r, _ := analyzeUnit(p, opt)
	return r
}

// analyzeUnit is Analyze exposing the analysis unit (same-package tests:
// convergence counters, phase maps).
func analyzeUnit(p *asm.Program, opt Options) (*Report, *unit) {
	opt = opt.withDefaults()
	u, ds := newUnit(p, opt)
	if u == nil {
		for i := range ds {
			ds[i].Phase = -1
		}
		return &Report{Diags: ds}, nil
	}
	ds = append(ds, u.buildCFG()...)
	ds = append(ds, u.checkUseBeforeDef()...)
	ds = append(ds, u.checkProtocol()...)
	ds = append(ds, u.checkDeadCode()...)
	return &Report{Diags: sortDiags(dedup(ds)), Phases: u.phaseInfo}, u
}

// diagRank orders codes for reporting (protocol violations first).
var diagRank = map[Code]int{
	CodeNoText: 0, CodeBadOpcode: 1, CodeBadBranch: 2, CodeFallOffEnd: 3,
	CodeMissingFence: 4, CodeWrongSlotInval: 5, CodeLoadBeforeInval: 6,
	CodeStoreToArrival: 7, CodeMissingIFlush: 8,
	CodeLoadBeforeAcquire: 9, CodeMissingRelease: 10,
	CodeCrossPartitionStore: 11, CodeDynPartitionOverlap: 12, CodeStoreLoadRace: 13,
	CodeUseBeforeDef: 14, CodeDeadCode: 15,
}

func sortDiags(ds []Diagnostic) []Diagnostic {
	sort.SliceStable(ds, func(i, j int) bool {
		if diagRank[ds[i].Code] != diagRank[ds[j].Code] {
			return diagRank[ds[i].Code] < diagRank[ds[j].Code]
		}
		return ds[i].Addr < ds[j].Addr
	})
	return ds
}

func dedup(ds []Diagnostic) []Diagnostic {
	seen := map[string]bool{}
	out := ds[:0]
	for _, d := range ds {
		k := fmt.Sprintf("%s@%x:%s", d.Code, d.Addr, d.Msg)
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, d)
	}
	return out
}

// AsError folds diagnostics into a single error (nil when clean), for
// callers that gate on a vet pass (the experiment harness, cmd/srvet).
func AsError(what string, ds []Diagnostic) error {
	if len(ds) == 0 {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "vet: %s: %d diagnostic(s):", what, len(ds))
	for i, d := range ds {
		if i == 8 {
			fmt.Fprintf(&b, "\n  ... and %d more", len(ds)-i)
			break
		}
		fmt.Fprintf(&b, "\n  %s", d)
	}
	return fmt.Errorf("%s", b.String())
}
