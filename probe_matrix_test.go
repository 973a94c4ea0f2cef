//go:build probematrix

package cmpfb

import "testing"

// TestProbeMatrix is the probe differential on every cell, matrix, special
// and lock; `make chaos` runs it (go test -tags probematrix).
func TestProbeMatrix(t *testing.T) { drive(t, allCells, probeKnobs...) }
