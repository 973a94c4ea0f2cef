package sim

import "math/bits"

// NextBit returns the first index at or after i whose bit is set in the
// bitset words (index b is bit b&63 of words[b>>6]), or -1. It reads the
// words on every call, so a walk
//
//	for i := NextBit(words, 0); i >= 0; i = NextBit(words, i+1)
//
// may clear the bit it visits, or set a later one, and still visit what a
// scan testing every index in ascending order would.
func NextBit(words []uint64, i int) int {
	for w := i >> 6; w < len(words); w++ {
		word := words[w]
		if w == i>>6 {
			word &^= 1<<(i&63) - 1
		}
		if word != 0 {
			return w<<6 | bits.TrailingZeros64(word)
		}
	}
	return -1
}
