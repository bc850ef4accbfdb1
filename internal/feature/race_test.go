//go:build race

package feature

// raceEnabled reports that the tests were built with -race, under which
// allocation counts mean nothing (the detector allocates on its own).
const raceEnabled = true
