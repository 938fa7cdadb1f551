//go:build !race

package nn

// raceEnabled reports whether the race detector is active; its
// instrumentation allocates and drops sync.Pool puts, which would fail
// allocation counts.
const raceEnabled = false
