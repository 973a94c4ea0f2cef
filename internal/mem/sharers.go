package mem

import (
	"fmt"
	"math/bits"
	"strings"

	"repro/internal/sim"
)

// Sharers is a variable-width bitset of core indices, one bit per core.
// The directory used to pack sharer sets into a single uint64, which capped
// the machine at 64 cores; Sharers lifts that limit (Config.Validate now
// allows up to MaxCores). A nil Sharers is the empty set, so idle directory
// entries cost no words; Set grows the word slice lazily.
type Sharers []uint64

// MaxCores bounds Config.Cores. The directory no longer imposes a width
// limit; this is a sanity bound on queue/port array allocations.
const MaxCores = 1024

// Has reports whether core c is in the set.
func (s Sharers) Has(c int) bool {
	w := c >> 6
	return w < len(s) && s[w]&(1<<uint(c&63)) != 0
}

// Set adds core c, growing the set as needed.
func (s *Sharers) Set(c int) {
	w := c >> 6
	for len(*s) <= w {
		*s = append(*s, 0)
	}
	(*s)[w] |= 1 << uint(c&63)
}

// Clear removes core c.
func (s Sharers) Clear(c int) {
	w := c >> 6
	if w < len(s) {
		s[w] &^= 1 << uint(c&63)
	}
}

// Next returns the first core at or after c in the set, or -1. A walk
// (sim.NextBit) visits the set's cores in ascending order, as a scan testing
// Has for every core would.
func (s Sharers) Next(c int) int { return sim.NextBit(s, c) }

// Reset empties the set in place, keeping its words allocated.
func (s Sharers) Reset() {
	for i := range s {
		s[i] = 0
	}
}

// Any reports whether the set is non-empty.
func (s Sharers) Any() bool {
	for _, w := range s {
		if w != 0 {
			return true
		}
	}
	return false
}

// Count returns the number of cores in the set.
func (s Sharers) Count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// Only reports whether the set is exactly {c}.
func (s Sharers) Only(c int) bool {
	return s.Count() == 1 && s.Has(c)
}

// Clone returns an independent copy (read-only probes hand these out so
// observers cannot alias live directory state).
func (s Sharers) Clone() Sharers {
	if len(s) == 0 {
		return nil
	}
	c := make(Sharers, len(s))
	copy(c, s)
	return c
}

// String renders the set as hex words, most-significant first, matching the
// old single-word %#x dumps for machines of up to 64 cores.
func (s Sharers) String() string {
	last := len(s) - 1
	for last > 0 && s[last] == 0 {
		last--
	}
	if last <= 0 {
		var w uint64
		if len(s) > 0 {
			w = s[0]
		}
		return fmt.Sprintf("%#x", w)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%#x", s[last])
	for i := last - 1; i >= 0; i-- {
		fmt.Fprintf(&b, ":%016x", s[i])
	}
	return b.String()
}
