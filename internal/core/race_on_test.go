//go:build race

package core

// raceEnabled skips the allocation guard: the race detector's
// instrumentation allocates on its own.
const raceEnabled = true
