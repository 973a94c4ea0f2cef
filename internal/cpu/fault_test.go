package cpu

import (
	"testing"

	"repro/internal/asm"
)

// TestFaultTexts pins the text of every fault the pipeline raises, byte for
// byte: these strings reach chaos reports and cached cell bytes, so a change
// to how a fault is recorded must not alter one.
func TestFaultTexts(t *testing.T) {
	for _, tc := range []struct {
		name, src, want string
	}{
		{name: "bad load", src: `
	li t0, 0x100001
	ld t1, 0(t0)
	halt`, want: "cpu: bad 8-byte load from 0x100001 at pc 0x10008"},
		{name: "misaligned store", src: `
	li t0, 0x100002
	sw t1, 0(t0)
	halt`, want: "cpu: misaligned 4-byte store to 0x100002 at pc 0x10008"},
		{name: "null store", src: `
	st zero, 8(zero)
	halt`, want: "cpu: null store to 0x8 at pc 0x10000"},
		{name: "misaligned null store", src: `
	sw zero, 6(zero)
	halt`, want: "cpu: null store to 0x6 at pc 0x10000"},
		{name: "bad SC", src: `
	li t0, 0x100004
	li t1, 1
	sc t2, t1, 0(t0)
	halt`, want: "cpu: bad SC to 0x100004 at pc 0x10010"},
		{name: "BAD at dispatch", src: `
	li t0, 0x50000
	jalr x0, 0(t0)`, want: "cpu: illegal instruction at 0x50000"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := asm.MustAssemble(tc.src, textBase, 0x100000)
			r := newRig(t, 1, p)
			c := r.cores[0]
			r.start(0, 0, 1, p.Entry)
			for i := 0; i < 100_000 && c.Running(); i++ {
				r.tick(c)
				r.sys.Tick(r.now)
				r.now++
			}
			if c.Fault == nil {
				t.Fatalf("no fault; halted=%v", c.Halted)
			}
			if got := c.Fault.Error(); got != tc.want {
				t.Fatalf("fault text\n got %q\nwant %q", got, tc.want)
			}
		})
	}
}
