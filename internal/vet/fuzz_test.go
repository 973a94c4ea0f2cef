package vet

import (
	"fmt"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
)

// FuzzVet assembles arbitrary source and vets whatever links: Check must
// terminate without panicking on any program, however malformed. The seeds
// mirror the assembler fuzzer's plus protocol-shaped fragments and every
// misuse corpus file, so the protocol pass's abstract interpreter gets
// exercised from the start.
func FuzzVet(f *testing.F) {
	seeds := []string{
		"",
		"halt",
		"li t0, 42\nout t0\nhalt",
		"x: j x",
		"icbi 0(s6)\ndcbi 64(s7)\nfence\niflush",
		"fence\ndcbi 0(s6)\nld t6, 0(s6)\nfence\ndcbi 0(s7)\nhalt",
		"li s6, 0x0f000000\nst t0, 0(s6)\nhalt",
		"li t0, 0x0f000000\nld t1, 0(t0)\nhalt",
		"fence\nicbi 0(s6)\niflush\njalr ra, s6, 0\nhalt",
		"beq a0, zero, only0\nj done\nonly0: st t0, 0(a1)\ndone: halt",
		"spin: ld t6, 0(s7)\nbeq t6, zero, spin\nhalt",
		"sc t0, t1, 0(a0)\nhwbar 3\nhalt",
		"li t0, -2147483648\nhalt",
		"nop\nnop\nnop",
		// Data-dependent loop bounds: the widening/narrowing paths. A
		// loaded bound, a masked bound, a strided partition walked to a
		// masked end, nested data-bounded loops, and a countdown whose
		// counter is itself reloaded each iteration.
		"li t0, 0x1000000\nld t1, 0(t0)\nli t2, 0\nlp: addi t2, t2, 1\nblt t2, t1, lp\nhalt",
		"li t0, 0x1000000\nld t1, 0(t0)\nandi t1, t1, 63\nlp: st zero, 0(t0)\naddi t0, t0, 8\naddi t1, t1, -1\nbnez t1, lp\nhalt",
		"li t0, 64\nmul t0, t0, a0\nli t1, 0x1000200\nadd t0, t0, t1\nld t2, 0(t1)\nandi t2, t2, 48\nadd t2, t0, t2\nlp: st a0, 0(t0)\naddi t0, t0, 8\nblt t0, t2, lp\nhalt",
		"li t0, 0x1000000\nld t1, 0(t0)\nli t2, 0\no: li t3, 0\ni: addi t3, t3, 1\nblt t3, t1, i\naddi t2, t2, 1\nblt t2, t1, o\nhalt",
		"li t0, 0x1000000\nlp: ld t1, 0(t0)\nandi t1, t1, 7\nbnez t1, lp\nhalt",
		// Basic-block derivation: a branch into the middle of a
		// straight-line run, a one-instruction self-loop, an entry past
		// the first word that jumps back to it, a stall-stub root that
		// lands mid-block (splitting the block the call reached), and an
		// undecodable word between two heads (text entered in .data).
		"li t0, 0\nli t1, 3\nmid: addi t0, t0, 1\nli t2, 2\nblt t0, t1, mid\nhalt",
		"li t0, 1\nself: bnez t0, self\nhalt",
		"first: li t0, 7\nhalt\nmain: li t1, 1\nj first\n.entry main",
		"li s6, 0x10030\njalr ra, 0(s6)\ncall stub\nhalt\nstub: addi t0, zero, 1\naddi t1, zero, 2\naddi t2, zero, 3\nret",
		fmt.Sprintf(".data\nw: .quad %d, 0, %d\n.entry w",
			int64(isa.Encode(isa.Inst{Op: isa.BEQ, Imm: 16})), int64(isa.Encode(isa.Inst{Op: isa.HALT}))),
	}
	for _, s := range seeds {
		f.Add(s, 4)
	}
	for _, e := range loadCorpus(f) {
		f.Add(e.src, e.threads)
	}
	f.Fuzz(func(t *testing.T, src string, threads int) {
		p, err := asm.Assemble(src, 0x10000, 0x100000)
		if err != nil {
			return
		}
		ds := Check(p, Options{Threads: threads})
		for _, d := range ds {
			if d.Msg == "" || d.Code == "" {
				t.Fatalf("empty diagnostic %+v from %q", d, src)
			}
		}
		// A second run must be deterministic.
		again := Check(p, Options{Threads: threads})
		if len(again) != len(ds) {
			t.Fatalf("non-deterministic: %d then %d diagnostics from %q", len(ds), len(again), src)
		}
	})
}
