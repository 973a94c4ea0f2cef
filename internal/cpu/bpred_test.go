package cpu

import (
	"fmt"
	"math/rand"
	"testing"
)

// denseBimodal is the reference predictor: the counters and the BTB as
// flat tables, written out without blocks.
type denseBimodal struct {
	ctr []uint8
	btb []denseEnt
}

type denseEnt struct {
	pc, target uint64
	valid      bool
}

func (d *denseBimodal) ctrIdx(pc uint64) uint64 { return (pc >> 3) % uint64(len(d.ctr)) }
func (d *denseBimodal) btbIdx(pc uint64) uint64 { return (pc >> 3) % uint64(len(d.btb)) }

// TestBimodalVsDense: seeded random sequences of every predictor operation
// give the same predictions from the block-allocated BTB as from a dense
// table, over BTBs smaller than, equal to and larger than one block, with
// pcs that alias within a block, across blocks and across the whole table.
func TestBimodalVsDense(t *testing.T) {
	for _, btbEntries := range []int{1, 2, 16, 64, 512} {
		for _, entries := range []int{1, 4, 2048} {
			t.Run(fmt.Sprintf("btb%d/bimodal%d", btbEntries, entries), func(t *testing.T) {
				for seed := int64(1); seed <= 4; seed++ {
					compareBimodal(t, seed, entries, btbEntries)
				}
			})
		}
	}
}

func compareBimodal(t *testing.T, seed int64, entries, btbEntries int) {
	rng := rand.New(rand.NewSource(seed))
	b := newBimodal(entries, btbEntries)
	d := &denseBimodal{ctr: make([]uint8, entries), btb: make([]denseEnt, btbEntries)}
	for i := range d.ctr {
		d.ctr[i] = 2
	}
	// A small pool of pcs keeps BTB hits frequent. Their word indices span
	// four times the larger table, so they alias at every table size, and
	// a high bit gives pcs with the same index but different tags.
	span := 4 * max(entries, btbEntries)
	pool := make([]uint64, min(3*btbEntries+3, 96))
	for i := range pool {
		pool[i] = uint64(rng.Intn(span))<<3 | uint64(rng.Intn(2))<<40
	}
	hits := 0
	for step := 0; step < 4000; step++ {
		p := pool[rng.Intn(len(pool))]
		switch rng.Intn(4) {
		case 0:
			want := d.ctr[d.ctrIdx(p)] >= 2
			if got := b.predictDir(p); got != want {
				t.Fatalf("seed %d step %d: predictDir(%#x) = %v, dense %v", seed, step, p, got, want)
			}
		case 1:
			taken := rng.Intn(2) == 0
			b.updateDir(p, taken)
			i := d.ctrIdx(p)
			if taken && d.ctr[i] < 3 {
				d.ctr[i]++
			} else if !taken && d.ctr[i] > 0 {
				d.ctr[i]--
			}
		case 2:
			e := d.btb[d.btbIdx(p)]
			wantOK := e.valid && e.pc == p
			var want uint64
			if wantOK {
				want = e.target
			}
			if got, ok := b.predictTarget(p); got != want || ok != wantOK {
				t.Fatalf("seed %d step %d: predictTarget(%#x) = %#x,%v, dense %#x,%v", seed, step, p, got, ok, want, wantOK)
			}
			if wantOK {
				hits++
			}
		case 3:
			target := rng.Uint64()
			b.updateTarget(p, target)
			d.btb[d.btbIdx(p)] = denseEnt{pc: p, target: target, valid: true}
		}
	}
	if hits == 0 {
		t.Fatalf("seed %d: no BTB hit in the sequence; the comparison never saw a stored target", seed)
	}
}
