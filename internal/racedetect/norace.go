//go:build !race

package racedetect

// Enabled reports that the binary was built with -race.
const Enabled = false
