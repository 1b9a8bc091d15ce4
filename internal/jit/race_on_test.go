//go:build race

package jit

// raceEnabled reports a -race build, whose sync.Pool drops a random share of
// the items put back, so pooled reuse cannot be asserted.
const raceEnabled = true
