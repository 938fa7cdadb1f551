//go:build !race

package tensor

// raceEnabled reports whether the race detector is active; its
// instrumentation allocates, which would fail the zero-allocation check.
const raceEnabled = false
