package cpu

// bimodal is a classic 2-bit saturating-counter direction predictor with a
// direct-mapped branch target buffer for indirect jumps. The BTB is
// allocated a block at a time on first update (a nil block reads as a
// miss); the counters stay dense, as predictDir runs on every branch fetch.
type bimodal struct {
	ctr   []uint8 // 2-bit counters, initialised weakly taken
	btb   []*[btbBlock]btbEnt
	mask  uint64
	bmask uint64
}

const btbBlock = 16 // BTB entries allocated together

type btbEnt struct {
	pc     uint64
	target uint64
	valid  bool
}

func newBimodal(entries, btbEntries int) *bimodal {
	if entries&(entries-1) != 0 || btbEntries&(btbEntries-1) != 0 {
		panic("cpu: predictor sizes must be powers of two")
	}
	b := &bimodal{
		ctr:   make([]uint8, entries),
		btb:   make([]*[btbBlock]btbEnt, (btbEntries+btbBlock-1)/btbBlock),
		mask:  uint64(btbEntries - 1),
		bmask: uint64(entries - 1),
	}
	for i := range b.ctr {
		b.ctr[i] = 2 // weakly taken: inner loops predict well immediately
	}
	return b
}

func (b *bimodal) index(pc uint64) uint64 { return (pc >> 3) & b.bmask }

// predictDir returns the predicted direction for a conditional branch.
func (b *bimodal) predictDir(pc uint64) bool { return b.ctr[b.index(pc)] >= 2 }

// updateDir trains the direction counter, reporting whether it moved.
func (b *bimodal) updateDir(pc uint64, taken bool) bool {
	i := b.index(pc)
	old := b.ctr[i]
	if taken {
		if b.ctr[i] < 3 {
			b.ctr[i]++
		}
	} else if b.ctr[i] > 0 {
		b.ctr[i]--
	}
	return b.ctr[i] != old
}

// predictTarget returns the BTB target for an indirect jump at pc.
func (b *bimodal) predictTarget(pc uint64) (uint64, bool) {
	i := (pc >> 3) & b.mask
	if blk := b.btb[i/btbBlock]; blk != nil {
		if e := blk[i%btbBlock]; e.valid && e.pc == pc {
			return e.target, true
		}
	}
	return 0, false
}

// updateTarget installs an indirect jump's target, reporting a change.
func (b *bimodal) updateTarget(pc, target uint64) bool {
	i := (pc >> 3) & b.mask
	blk := b.btb[i/btbBlock]
	if blk == nil {
		blk = new([btbBlock]btbEnt)
		b.btb[i/btbBlock] = blk
	}
	e := btbEnt{pc: pc, target: target, valid: true}
	changed := blk[i%btbBlock] != e
	blk[i%btbBlock] = e
	return changed
}
