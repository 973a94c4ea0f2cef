package cpu

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/asm"
)

// FuzzTranslateDiff feeds arbitrary assembler sources through the frontend
// twice — translation cache attached and detached — and requires bit-identical
// cycle counts, architectural registers, console output, and fault text. The
// seed corpus leans on the cases where the cache could legally go stale:
// stores into the text segment (with and without the architectural
// ICBI/IFLUSH sequence), jumps into never-written memory, and misaligned
// targets that bypass the cache. Run continuously with
// `go test -fuzz=FuzzTranslateDiff ./internal/cpu` (make chaos runs a 10s
// smoke); the seeds run as part of the normal suite.
func FuzzTranslateDiff(f *testing.F) {
	seeds := []string{
		"halt",
		"li t0, 42\nout t0\nhalt",
		// Tight cross-line loop: exercises block transitions and hits.
		"li t0, 50\nx:\naddi t1, t1, 1\nnop\nnop\nnop\nnop\nnop\nnop\naddi t0, t0, -1\nbnez t0, x\nout t1\nhalt",
		// Store to text with the full coherence sequence.
		smcProgram(),
		// Store to text with NO icbi/iflush: the write hook alone must keep
		// the cached records equal to what a per-fetch decode would read.
		"la t0, site\nla t2, w\nld t1, 0(t2)\nst t1, 0(t0)\nfence\nsite:\nli a0, 7\nout a0\nhalt\n.data\nw: .quad 0x1a5000000000000f",
		// Store to text while copies of the old word wait in the fetch
		// buffer: they must execute the bytes they were fetched as.
		inFlightRewriteSrc(),
		// Jump into zeroed memory (illegal instruction via BAD).
		"li t0, 0x50000\njalr x0, 0(t0)",
		// Misaligned jump target (cache bypass path).
		"la t0, p\njalr x0, 4(t0)\np:\nhalt\nhalt",
		// Null store fault.
		"st zero, 8(zero)\nhalt",
		// Fences, cache ops, forwarding.
		"la t0, v\nli t1, 9\nst t1, 0(t0)\nld t2, 0(t0)\nfence\nicbi 0(t0)\ndcbi 0(t0)\niflush\nout t2\nhalt\n.data\n.align 64\nv: .quad 1",
		// LL/SC retry loop.
		"la t0, v\nr:\nll t1, 0(t0)\naddi t1, t1, 1\nsc t2, t1, 0(t0)\nbeqz t2, r\nout t1\nhalt\n.data\nv: .quad 41",
		// Alternating branch (mispredict-heavy frontend traffic).
		"li t0, 60\nl:\nandi t2, t0, 1\nbeqz t2, e\naddi t1, t1, 1\ne:\naddi t0, t0, -1\nbnez t0, l\nout t1\nhalt",
		// Non-halting loop: compared at the cycle bound.
		"spin: j spin",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		// HWBAR needs a barrier network the bare rig does not wire up.
		if strings.Contains(strings.ToLower(src), "hwbar") {
			return
		}
		p, err := asm.Assemble(src, textBase, 0x100000)
		if err != nil {
			return // rejected input is fine; divergence below is not
		}
		run := func(translate bool) string {
			r := newRig(t, 1, p)
			if translate {
				attachTranslator(r)
			}
			r.start(0, 0, 1, p.Entry)
			for i := 0; i < 20_000 && r.cores[0].Running(); i++ {
				r.tick(r.cores[0])
				r.sys.Tick(r.now)
				r.now++
			}
			c := r.cores[0]
			var sb strings.Builder
			fmt.Fprintf(&sb, "cycles=%d halted=%v fault=%v pc=%#x console=%v\n",
				r.now, c.Halted, c.Fault, c.ResumePC(), c.Console)
			for i := 0; i < 64; i++ { // 32 int + 32 fp committed registers
				if v := c.Reg(i); v != 0 {
					fmt.Fprintf(&sb, "r%d=%#x\n", i, v)
				}
			}
			return sb.String()
		}
		on, off := run(true), run(false)
		if on != off {
			t.Fatalf("translator diverged on %q:\n--- translated ---\n%s--- untranslated ---\n%s", src, on, off)
		}
	})
}
