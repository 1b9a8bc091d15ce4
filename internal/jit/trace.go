package jit

import (
	"time"

	"trapnull/internal/ir"
	"trapnull/internal/obs"
)

// PassObserver is invoked after every pipeline pass with the pass name, the
// function in its current state, and how long the pass ran (verification
// included); CompileOptions.AfterPass carries it. Observers are how
// miscompilations get bisected: compile with one set, execute the function
// after each pass, and the first divergence names the guilty pass —
// internal/triage automates exactly that, and reports the timings alongside.
type PassObserver func(pass string, f *ir.Func, elapsed time.Duration) error

// Observer bundles the observability sinks of one observed compilation
// (internal/obs). Both fields are optional; a nil Observer — the
// CompileProgram path — costs nothing.
type Observer struct {
	// Trace records one span per pass and per function; TID is the trace
	// lane the spans land in (take it from Trace.NextTID so concurrent
	// compilations do not interleave).
	Trace *obs.Trace
	TID   int64
	// Remarks collects a per-function null-check fate ledger.
	Remarks *obs.Remarks
}

func (ob *Observer) tracing() bool { return ob != nil && ob.Trace != nil }
