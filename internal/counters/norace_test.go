//go:build !race

package counters_test

// raceEnabled reports whether the race detector is on; its runtime adds
// allocations that allocation-count tests must not measure.
const raceEnabled = false
