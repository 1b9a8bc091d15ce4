//go:build race

package machine

// raceEnabled reports a -race build, whose instrumentation allocates on its
// own, so allocation budgets cannot be asserted.
const raceEnabled = true
