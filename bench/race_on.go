//go:build race

package main

// raceEnabled reports a -race build, whose timings measure the detector.
const raceEnabled = true
