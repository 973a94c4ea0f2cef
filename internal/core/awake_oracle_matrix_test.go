//go:build probematrix

package core_test

import (
	"testing"

	"repro/internal/faults"
)

// TestAwakeSetOracleMatrix is the awake-set oracle's software barriers
// under every faults.Profiles() injector, the preempting ones through the
// OS model at the harness's plan; `make chaos` runs it (go test -tags
// probematrix).
func TestAwakeSetOracleMatrix(t *testing.T) {
	var cases []oracleCase
	for _, p := range faults.Profiles() {
		cases = append(cases, injectedCases(p)...)
	}
	awakeSetOracle(t, cases, false)
}
