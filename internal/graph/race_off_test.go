//go:build !race

package graph_test

// raceEnabled reports whether the race detector instruments this test
// binary. It slows memory-bound code several-fold, so wall-clock bounds
// scale with it.
const raceEnabled = false
