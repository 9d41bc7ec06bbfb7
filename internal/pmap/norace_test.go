//go:build !race

package pmap

// raceEnabled reports that the race detector is compiled in, so allocation
// guards know to skip.
const raceEnabled = false
