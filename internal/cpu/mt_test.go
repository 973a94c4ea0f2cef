package cpu

import (
	"fmt"
	"testing"

	"repro/internal/asm"
	"repro/internal/mem"
)

// TestLongStalledIsNoAccess: the SMT thread-select check is not a cache
// access. On a context whose fetch line and head-load line are both present,
// longStalled must count no L1I or L1D hit and leave the L1D set's LRU order
// as it was: after it probes the older of two lines in one set, a third line
// into that set still evicts that older line.
func TestLongStalledIsNoAccess(t *testing.T) {
	cfg := mem.DefaultConfig(1)
	stride := uint64(cfg.L1Size / cfg.L1Assoc) // one L1D set apart
	a := uint64(0x100000)
	b, c := a+stride, a+2*stride
	src := fmt.Sprintf(`
main:
	li t0, %#x
	ld t1, 0(t0)
	li t0, %#x
	ld t1, 0(t0)
	halt
evict:
	li t0, %#x
	ld t1, 0(t0)
	halt
`, a, b, c)
	p := asm.MustAssemble(src, textBase, 0x100000)
	r := newRig(t, 1, p)
	core := r.cores[0]
	r.start(0, 0, 1, p.MustSymbol("main"))
	r.run(t, 100_000)
	l1i, l1d := r.sys.L1I[0], r.sys.L1D[0]
	if l1d.Peek(a) == mem.Invalid || l1d.Peek(b) == mem.Invalid || l1i.Peek(core.fetchPC) == mem.Invalid {
		t.Fatal("setup: the probed lines are not all present")
	}

	// An empty pipeline fetching from a present line, then a window headed
	// by a load waiting on line a (the set's least recently used way).
	iHits, dHits := l1i.Hits, l1d.Hits
	core.fetchBuf.n, core.fetchHoldUntil = 0, 0
	if core.longStalled(r.now) {
		t.Fatal("a context whose fetch line is present reads as stalled")
	}
	*core.win.at(0), core.win.n = entry{missWait: true, addr: a}, 1
	if core.longStalled(r.now) {
		t.Fatal("a context whose head-load line is present reads as stalled")
	}
	if l1i.Hits != iHits || l1d.Hits != dHits {
		t.Fatalf("longStalled counted hits: l1i +%d, l1d +%d", l1i.Hits-iHits, l1d.Hits-dHits)
	}

	r.start(0, 0, 1, p.MustSymbol("evict"))
	r.run(t, 100_000)
	if l1d.Peek(a) != mem.Invalid || l1d.Peek(b) == mem.Invalid {
		t.Fatalf("line c evicted the probed line's neighbour: a %v, b %v (longStalled refreshed a's LRU position)",
			l1d.Peek(a), l1d.Peek(b))
	}
}
