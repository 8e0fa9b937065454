//go:build race

package service

// raceEnabled reports a -race build, whose instrumentation changes
// what the runtime allocates.
const raceEnabled = true
