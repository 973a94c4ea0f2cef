// Package cmpfb (Chip-MultiProcessor Fast Barriers) is the public API of
// this reproduction of "Exploiting Fine-Grained Data Parallelism with Chip
// Multiprocessors and Fast Barriers" (Sampson et al., MICRO 2006).
//
// It re-exports the pieces a user composes:
//
//   - a cycle-level CMP simulator (out-of-order SRISC cores, private L1s,
//     banked shared L2 with a directory, L3, DRAM, shared address bus with
//     a per-bank data crossbar): NewMachine / DefaultConfig;
//   - the barrier filter hardware and the seven barrier mechanisms of the
//     paper (software centralized & combining tree, dedicated network,
//     I-/D-cache barrier filters and their ping-pong variants): NewBarrier;
//   - an SRISC assembler (Assemble, NewProgramBuilder) and the paper's
//     kernels (Livermore loops 2/3/6, autocorrelation, Viterbi);
//   - the experiment harness that regenerates every table and figure of
//     the paper's evaluation (Table1, Fig4..Fig10).
//
// # Quick start
//
//	cfg := cmpfb.DefaultConfig(16)
//	alloc := cmpfb.NewAllocator(cfg)
//	gen := cmpfb.MustNewBarrier(cmpfb.FilterI, 16, alloc)
//	prog, _ := cmpfb.BuildSPMD(gen, func(b *cmpfb.ProgramBuilder) {
//	    gen.EmitBarrier(b) // ... your kernel, with barriers ...
//	})
//	m := cmpfb.NewMachine(cfg)
//	cmpfb.Launch(m, gen, prog, 16)
//	cycles, err := m.Run(1_000_000)
//
// The package Examples are complete programs; DESIGN.md has the system map.
package cmpfb

import (
	"repro/internal/asm"
	"repro/internal/barrier"
	"repro/internal/core"
	"repro/internal/filter"
	"repro/internal/harness"
	"repro/internal/kernels"
	"repro/internal/osmodel"
)

// Machine is the simulated CMP.
type Machine = core.Machine

// Config configures a Machine (cores, memory system, pipeline, filters).
type Config = core.Config

// NewMachine builds a machine.
func NewMachine(cfg Config) *Machine { return core.NewMachine(cfg) }

// DefaultConfig returns the paper's Table 2 machine for a core count.
func DefaultConfig(cores int) Config { return core.DefaultConfig(cores) }

// Memory-map constants for hand-written programs.
const (
	TextBase = core.TextBase
	DataBase = core.DataBase
)

// BarrierKind selects one of the paper's seven barrier mechanisms.
type BarrierKind = barrier.Kind

// The seven mechanisms.
const (
	SWCentral = barrier.KindSWCentral
	SWTree    = barrier.KindSWTree
	HWNet     = barrier.KindHWNet
	FilterI   = barrier.KindFilterI
	FilterD   = barrier.KindFilterD
	FilterIPP = barrier.KindFilterIPP
	FilterDPP = barrier.KindFilterDPP
)

// BarrierKinds lists every mechanism in the paper's order.
var BarrierKinds = barrier.Kinds

// BarrierGenerator emits a barrier's code and installs its hardware.
type BarrierGenerator = barrier.Generator

// Allocator hands out barrier line addresses under the paper's OS rules.
type Allocator = barrier.Allocator

// NewAllocator creates a barrier address allocator for a machine
// configuration.
func NewAllocator(cfg Config) *Allocator {
	return barrier.NewAllocator(cfg.Mem)
}

// Filter is the barrier-filter hardware state table.
type Filter = filter.Filter

// ProgramBuilder emits SRISC instructions programmatically.
type ProgramBuilder = asm.Builder

// Program is a linked SRISC image.
type Program = asm.Program

// Assemble translates SRISC assembly text into a Program.
func Assemble(src string) (*Program, error) {
	return asm.Assemble(src, core.TextBase, core.DataBase)
}

// NewProgramBuilder returns a builder over the standard memory map.
func NewProgramBuilder() *ProgramBuilder {
	return asm.NewBuilder(core.TextBase, core.DataBase)
}

// NewBarrier constructs a barrier generator of the given kind.
func NewBarrier(kind BarrierKind, nthreads int, alloc *Allocator) (BarrierGenerator, error) {
	return barrier.New(kind, nthreads, alloc)
}

// MustNewBarrier panics on error.
func MustNewBarrier(kind BarrierKind, nthreads int, alloc *Allocator) BarrierGenerator {
	return barrier.MustNew(kind, nthreads, alloc)
}

// BuildSPMD composes barrier setup, the caller's body and barrier stubs
// into a runnable SPMD program.
func BuildSPMD(gen BarrierGenerator, body func(b *ProgramBuilder)) (*Program, error) {
	return barrier.BuildProgram(gen, body)
}

// Launch loads the program, installs the barrier hardware and starts
// nthreads SPMD threads.
func Launch(m *Machine, gen BarrierGenerator, p *Program, nthreads int) error {
	return barrier.Launch(m, gen, p, nthreads)
}

// Kernel is one of the paper's workloads.
type Kernel = kernels.Kernel

// Kernel constructors (sequential + parallel builds, with Go references).
var (
	NewLivermore2 = kernels.NewLivermore2
	NewLivermore3 = kernels.NewLivermore3
	NewLivermore6 = kernels.NewLivermore6
	NewAutcor     = kernels.NewAutcor
	NewViterbi    = kernels.NewViterbi
)

// BarrierManager is the OS barrier library (registration, fallback, swap).
type BarrierManager = osmodel.Manager

// NewBarrierManager creates the OS barrier library for a machine.
func NewBarrierManager(m *Machine) *BarrierManager { return osmodel.NewManager(m) }

// Scheduler maps software threads to cores with §3.3.3 context switching.
type Scheduler = osmodel.Scheduler

// NewScheduler creates a scheduler over a machine's cores.
func NewScheduler(m *Machine) *Scheduler { return osmodel.NewScheduler(m) }

// Experiment harness re-exports: each regenerates one paper table/figure.
type (
	// ExperimentOptions tunes experiment cost and verification.
	ExperimentOptions = harness.Options
	// LatencyPoint is one Figure 4 cell.
	LatencyPoint = harness.LatencyPoint
	// SpeedupRow is one Table 1 / Figure 5 / Figure 6 row.
	SpeedupRow = harness.SpeedupRow
	// TimeSeries is one Figure 7/8/10 sweep.
	TimeSeries = harness.TimeSeries
)

// Experiment entry points.
var (
	DefaultExperimentOptions = harness.DefaultOptions
	QuickExperimentOptions   = harness.QuickOptions
	Table1                   = harness.Table1
	Fig4                     = harness.Fig4
	Fig5                     = harness.Fig5
	Fig6                     = harness.Fig6
	Fig7                     = harness.Fig7
	Fig8                     = harness.Fig8
	Fig10                    = harness.Fig10
)
