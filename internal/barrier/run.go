package barrier

import (
	"fmt"
	"strings"

	"repro/internal/asm"
	"repro/internal/core"
)

// BuildProgram composes a complete SPMD program: barrier setup, the caller's
// body (which may call gen.EmitBarrier any number of times and emit data),
// a final HALT, and the barrier's auxiliary text (I-cache stubs).
func BuildProgram(gen Generator, body func(b *asm.Builder)) (*asm.Program, error) {
	b := asm.NewBuilder(core.TextBase, core.DataBase)
	gen.EmitSetup(b)
	body(b)
	b.HALT()
	gen.EmitAux(b)
	return b.Build()
}

// Assemble assembles SRISC source into a complete SPMD program around gen,
// composed as BuildProgram composes it. A line whose one statement is the
// pseudo-instruction `barrier` (lower-case, no operands) expands to gen's
// barrier sequence.
func Assemble(gen Generator, src string) (*asm.Program, error) {
	var err error
	prog, buildErr := BuildProgram(gen, func(b *asm.Builder) {
		la := asm.NewLineAssembler(b)
		for i, line := range strings.Split(src, "\n") {
			if asm.Statement(line) == "barrier" {
				gen.EmitBarrier(b)
			} else if err = la.Line(line); err != nil {
				err = fmt.Errorf("line %d: %w", i+1, err)
				return
			}
		}
	})
	if err != nil {
		return nil, err
	}
	return prog, buildErr
}

// Install is the one place a program meets a machine: load the text and
// data, install gen's hardware, then the locks the program declares. It
// leaves every thread unstarted, so a caller can still attach to the machine
// (the fault injector does) before anything runs. An ErrNoCapacity from a
// full bank table stays visible to errors.Is.
func Install(m *core.Machine, gen Generator, prog *asm.Program) error {
	m.Load(prog)
	if err := gen.Install(m, prog); err != nil {
		return fmt.Errorf("installing %s: %w", gen.Kind(), err)
	}
	if _, err := InstallLocks(m, prog); err != nil {
		return fmt.Errorf("installing locks for %s: %w", gen.Kind(), err)
	}
	return nil
}

// Launch is Install followed by starting nthreads SPMD threads at the
// program entry.
func Launch(m *core.Machine, gen Generator, prog *asm.Program, nthreads int) error {
	if err := Install(m, gen, prog); err != nil {
		return fmt.Errorf("barrier: %w", err)
	}
	m.StartSPMD(prog.Entry, nthreads)
	return nil
}
