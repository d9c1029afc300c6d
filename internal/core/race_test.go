//go:build race

package core

// raceEnabled reports whether the test binary runs under the race
// detector, which makes sync.Pool drop items at random.
const raceEnabled = true
