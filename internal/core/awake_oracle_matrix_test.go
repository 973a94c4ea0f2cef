//go:build probematrix

package core_test

import (
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
