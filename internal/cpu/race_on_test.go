//go:build race

package cpu

// raceEnabled skips the allocation guards: the race detector's
// instrumentation allocates on its own.
const raceEnabled = true
