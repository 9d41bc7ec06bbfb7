//go:build race

package rules_test

// raceEnabled reports that the race detector is compiled in, so allocation
// guards know to skip.
const raceEnabled = true
