//go:build race

package core

// raceEnabled reports that the race detector instruments this build, whose
// runtime allocates beside the program.
const raceEnabled = true
