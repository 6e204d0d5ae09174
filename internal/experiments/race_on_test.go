//go:build race

package experiments

// raceEnabled reports a -race build, under which the heaviest tests trim
// their sweeps to stay inside the default test timeout.
const raceEnabled = true
