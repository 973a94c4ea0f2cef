// Package sim provides the minimal shared vocabulary of the cycle-level
// simulator: the cycle type, a deterministic random number generator used by
// workload generators, a generic statistics registry that every hardware
// model hangs its counters on, a ring FIFO and a bitset walk.
//
// The simulator is strictly deterministic: all components are stepped in a
// fixed order once per cycle and no wall-clock or map-iteration order leaks
// into simulated behaviour.
package sim

import (
	"fmt"
	"sort"
	"strings"
)

// Cycle is a point in simulated time, measured in core clock cycles since
// machine reset.
type Cycle = uint64

// Rand is a small deterministic xorshift64* generator. It is used by
// workload generators (synthetic inputs) so that every run of an experiment
// sees the same data regardless of host platform or Go version.
type Rand struct {
	state uint64
}

// NewRand returns a generator seeded with seed. A zero seed is remapped to a
// fixed non-zero constant because xorshift has an all-zero fixed point.
func NewRand(seed uint64) *Rand {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &Rand{state: seed}
}

// Uint64 returns the next value in the sequence.
func (r *Rand) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Intn returns a deterministic value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Norm returns an approximately normal sample (mean 0, stddev 1) via the sum
// of uniforms; adequate for synthetic waveforms.
func (r *Rand) Norm() float64 {
	s := 0.0
	for i := 0; i < 12; i++ {
		s += r.Float64()
	}
	return s - 6.0
}

// Stats is a named-counter registry. Components allocate counters up front
// and bump them with plain integer adds; Snapshot and String are only used
// at reporting time.
type Stats struct {
	names  []string
	values map[string]*uint64
}

// NewStats returns an empty registry.
func NewStats() *Stats {
	return &Stats{values: make(map[string]*uint64)}
}

// Counter returns a pointer to the named counter, creating it at zero if
// needed. The returned pointer is stable for the life of the Stats. names
// stays sorted on insert so that String never re-sorts.
func (s *Stats) Counter(name string) *uint64 {
	if p, ok := s.values[name]; ok {
		return p
	}
	p := new(uint64)
	s.values[name] = p
	i := sort.SearchStrings(s.names, name)
	s.names = append(s.names, "")
	copy(s.names[i+1:], s.names[i:])
	s.names[i] = name
	return p
}

// Get returns the current value of a counter, or zero if it was never
// created.
func (s *Stats) Get(name string) uint64 {
	if p, ok := s.values[name]; ok {
		return *p
	}
	return 0
}

// Snapshot returns a copy of all counters.
func (s *Stats) Snapshot() map[string]uint64 {
	out := make(map[string]uint64, len(s.values))
	for k, p := range s.values {
		out[k] = *p
	}
	return out
}

// String renders the counters sorted by name, one per line (names is kept
// sorted by Counter, so no per-call sort is needed).
func (s *Stats) String() string {
	var b strings.Builder
	for _, n := range s.names {
		fmt.Fprintf(&b, "%-40s %d\n", n, *s.values[n])
	}
	return b.String()
}
