package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/isa"
)

// A loop, a store, an LL/SC pair and HALT.
const traceProg = `
	la   a0, cell
	li   t0, 3
loop:
	addi t0, t0, -1
	bnez t0, loop
	st   t0, 0(a0)
	ll   t1, 0(a0)
	addi t1, t1, 1
	sc   t2, t1, 0(a0)
	out  t2
	halt

	.data
	.align 8
cell:
	.quad 7
`

// TestTraceCommitLines runs the -trace consumer: one commit line per
// committed instruction, the last one HALT's, falling through to pc+4.
func TestTraceCommitLines(t *testing.T) {
	prog, err := asm.Assemble(traceProg, core.TextBase, core.DataBase)
	if err != nil {
		t.Fatal(err)
	}
	m := core.NewMachine(core.DefaultConfig(1))
	var out bytes.Buffer
	m.Attach(tracer{&out})
	m.Load(prog)
	m.StartSPMD(prog.Entry, 1)
	if _, err := m.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if c := m.Cores[0].Console; len(c) != 1 || c[0] != 1 {
		t.Fatalf("console %v, want [1]: the SC did not succeed", c)
	}
	var commits []string
	kinds := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		f := strings.Fields(line)
		kinds[f[1]]++
		if f[1] == "commit" {
			commits = append(commits, line)
		}
	}
	if uint64(len(commits)) != m.TotalCommitted() {
		t.Fatalf("%d commit lines, %d instructions committed", len(commits), m.TotalCommitted())
	}
	for _, k := range []string{"load", "store", "mem"} {
		if kinds[k] == 0 {
			t.Errorf("no %s lines in the trace: %v", k, kinds)
		}
	}
	var cycle, pc, next uint64
	var core, dest int
	var val uint64
	last := commits[len(commits)-1]
	if _, err := fmt.Sscanf(last, "%d commit core%d pc=%v next=%v dest=%d val=%v", &cycle, &core, &pc, &next, &dest, &val); err != nil {
		t.Fatalf("%q: %v", last, err)
	}
	if w := m.Sys.Mem.ReadUint64(pc); isa.Decode(w).Op != isa.HALT {
		t.Errorf("last commit %q is not the HALT", last)
	}
	if next != pc+isa.WordBytes {
		t.Errorf("last commit %q: next pc %#x, want %#x", last, next, pc+isa.WordBytes)
	}
}
