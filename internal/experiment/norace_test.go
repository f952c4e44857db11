//go:build !race

package experiment

// raceEnabled reports whether the tests run under the race detector,
// whose instrumentation changes what allocates.
const raceEnabled = false
