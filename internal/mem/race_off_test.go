//go:build !race

package mem

// raceEnabled skips the allocation guards: the race detector's
// instrumentation allocates on its own.
const raceEnabled = false
