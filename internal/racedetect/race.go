//go:build race

// Package racedetect tells tests whether the race detector is compiled
// in: allocation budgets (testing.AllocsPerRun) do not hold under its
// instrumentation and skip themselves.
package racedetect

// Enabled reports that the binary was built with -race.
const Enabled = true
