//go:build race

package dsp

// raceEnabled reports whether the race detector is on: it makes sync.Pool
// drop items at random, so allocation guards skip under it.
const raceEnabled = true
