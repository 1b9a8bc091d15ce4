package main

import (
	"fmt"
	"runtime/metrics"
	"time"

	"trapnull/internal/jit"
	"trapnull/internal/machine"
)

// tally is what one pass did, summed over its operations. An operation is
// one checked unit of work: a sweep cell, or one compile-and-run of a
// program under a configuration.
type tally struct {
	attempted, failed int64
	failures          []string // the first few failure reasons

	simCycles     int64
	compileToPeak time.Duration
	// compiles holds the latency of every cache-miss compile of a successful
	// operation; pending collects the current operation's until it is judged.
	compiles []time.Duration
	pending  []time.Duration

	exec                        machine.ExecStats
	closureInstrs, switchInstrs int64
	cacheHits, cacheMisses      int64
	// static accumulates the compile-side counts and Result.Times of every
	// compile.
	static              jit.Result
	instrsIn, instrsOut int64

	promotions, deopts, osr int64
	demotions, recompiles   int64
	tierCompile, govCompile time.Duration

	peakHeap uint64
	heap     []metrics.Sample
}

const maxFailures = 5

func newTally() *tally {
	return &tally{heap: []metrics.Sample{{Name: "/gc/heap/live:bytes"}}}
}

// compiled records one compile's latency and static counts.
func (t *tally) compiled(d time.Duration, res *jit.Result) {
	t.pending = append(t.pending, d)
	addStatic(&t.static, res)
}

func addStatic(dst *jit.Result, res *jit.Result) {
	dst.Times.Add(res.Times)
	dst.Checks.Add(res.Checks)
	dst.Inline.Add(res.Inline)
	dst.Scalar.Add(res.Scalar)
	dst.BoundChecksRemoved += res.BoundChecksRemoved
	dst.FuncsCompiled += res.FuncsCompiled
}

// ran records the instructions one machine call executed under the engine
// whose span timed it.
func (t *tally) ran(n spanName, instrs int64) {
	switch n {
	case spCallClosure:
		t.closureInstrs += instrs
	case spCallSwitch:
		t.switchInstrs += instrs
	}
}

// done judges the current operation: a failed one is counted and its
// timings are dropped, a correct one keeps them.
func (t *tally) done(what string, err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.failures) < maxFailures {
			t.failures = append(t.failures, what+": "+err.Error())
		}
	} else {
		t.compiles = append(t.compiles, t.pending...)
	}
	t.pending = t.pending[:0]
	metrics.Read(t.heap)
	if v := t.heap[0].Value.Uint64(); v > t.peakHeap {
		t.peakHeap = v
	}
}

// addExec sums a machine's lifetime counts into the pass.
func (t *tally) addExec(s machine.ExecStats) {
	t.exec.Instrs += s.Instrs
	t.exec.ExplicitChecks += s.ExplicitChecks
	t.exec.ImplicitSites += s.ImplicitSites
	t.exec.BoundChecks += s.BoundChecks
	t.exec.Loads += s.Loads
	t.exec.Stores += s.Stores
	t.exec.Calls += s.Calls
	t.exec.TrapsTaken += s.TrapsTaken
	t.exec.ThrownSoftware += s.ThrownSoftware
}

func (t *tally) addCache(s jit.CacheStats) {
	t.cacheHits += s.Hits
	t.cacheMisses += s.Misses
}

// mismatch formats a disagreement with a reference value.
func mismatch(what string, got, want any) error {
	return fmt.Errorf("%s: got %v, want %v", what, got, want)
}
