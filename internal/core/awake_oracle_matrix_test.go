//go:build probematrix

package core_test

import (
	"fmt"
	"testing"

	"repro/internal/barrier"
	"repro/internal/faults"
)

// TestAwakeSetOracleMatrix is the awake-set oracle's software barriers
// under every faults.Profiles() injector, and the dedicated barrier network
// under the preempting ones, through the OS model at the harness's plan
// (an HWBAR wait is never preempted, so preemptions wait for the release);
// `make chaos` runs it (go test -tags probematrix).
func TestAwakeSetOracleMatrix(t *testing.T) {
	var cases []oracleCase
	for _, p := range faults.Profiles() {
		cases = append(cases, injectedCases(p)...)
		if p.WantsPreemption() {
			cases = append(cases, oracleCase{"hw-net/" + p.Name, barrier.KindHWNet, "livermore3", 1, 256, p})
		}
	}
	awakeSetOracle(t, cases, false)
}

// TestAwakeSetOracleSeeds runs TestAwakeSetOracle's injected cases, the
// software barriers under bus-delay, spurious-fill, state-flip and monsoon,
// at seeds 1 to 32 each (256 twin pairs), so a divergence that only some
// seeds' injections provoke cannot hide behind the one seed a case's name
// gives it; `make chaos` runs it.
func TestAwakeSetOracleSeeds(t *testing.T) {
	for _, p := range oracleProfiles(t) {
		for _, tc := range injectedCases(p) {
			for seed := uint64(1); seed <= 32; seed++ {
				t.Run(fmt.Sprintf("%s/seed-%d", tc.name, seed), func(t *testing.T) { runTwins(t, tc, seed) })
			}
		}
	}
}
