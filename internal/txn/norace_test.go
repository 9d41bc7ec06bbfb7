//go:build !race

package txn

// raceEnabled reports that the race detector is compiled in, so allocation
// guards know to skip.
const raceEnabled = false
