//go:build race

package interconnect

// raceEnabled skips the allocation guards: the race detector's
// instrumentation allocates on its own.
const raceEnabled = true
