package bench

import (
	"fmt"
	"time"

	"trapnull/internal/jit"
	"trapnull/internal/machine"
	"trapnull/internal/nullcheck"
	"trapnull/internal/obs"
)

// Telemetry plumbing shared by the sweep modes: the metrics registry names,
// the per-cell flight-recorder attachment, and the merge of recorded events
// into the Perfetto trace.
//
// Determinism contract: everything published here is derived from simulated
// quantities (cycles, dynamic counters, logical clocks), never from host
// timing — with two deliberate exceptions registered as VOLATILE metrics
// (compile host time, single-flight waits), which obs.Registry.Snapshot
// excludes unless explicitly asked for. The deterministic snapshot of the
// same sweep is therefore byte-identical at any parallelism and on either
// engine; the telemetry tests in telemetry_test.go pin that.

// RunCounters are one measured run's deterministic facts: the source of the
// engine.*, static.* and attr.* metrics of both the sweep snapshot
// (benchtab -metrics, summed over cells) and the single-run snapshot
// (nulljit -metrics).
type RunCounters struct {
	Exec    machine.ExecStats
	Checks  nullcheck.Stats
	Cycles  int64               // single-run snapshot only
	Profile *obs.ProfileSummary // sweep only; nil unless the cell was profiled
	Attr    *obs.Attribution    // nil without trap-cost attribution
}

// runMetric flags: which snapshot a row belongs to when not both, and which
// optional source it needs.
const (
	sweepOnly = 1 << iota
	runOnly
	needsProfile
	needsAttr
)

// runMetrics declares each run metric once, in snapshot order.
var runMetrics = []struct {
	name, help string
	flags      int
	value      func(*RunCounters) int64
}{
	{"engine.instrs", "dynamic instructions executed", 0, func(r *RunCounters) int64 { return r.Exec.Instrs }},
	{"engine.explicit_checks", "explicit null check instructions executed", 0, func(r *RunCounters) int64 { return r.Exec.ExplicitChecks }},
	{"engine.implicit_sites", "dereferences executed at implicit-check sites", 0, func(r *RunCounters) int64 { return r.Exec.ImplicitSites }},
	{"engine.bound_checks", "dynamic array bound checks", 0, func(r *RunCounters) int64 { return r.Exec.BoundChecks }},
	{"engine.loads", "dynamic loads", 0, func(r *RunCounters) int64 { return r.Exec.Loads }},
	{"engine.stores", "dynamic stores", 0, func(r *RunCounters) int64 { return r.Exec.Stores }},
	{"engine.calls", "dynamic calls", 0, func(r *RunCounters) int64 { return r.Exec.Calls }},
	{"engine.traps_taken", "hardware traps that became NPEs", 0, func(r *RunCounters) int64 { return r.Exec.TrapsTaken }},
	{"engine.thrown_software", "exceptions raised by explicit checks", 0, func(r *RunCounters) int64 { return r.Exec.ThrownSoftware }},
	{"engine.blocks", "block entries (profiled cells only)", sweepOnly | needsProfile, func(r *RunCounters) int64 { return r.Profile.BlocksEntered }},
	{"engine.cycles", "simulated cycles", runOnly, func(r *RunCounters) int64 { return r.Cycles }},
	{"static.implicit", "checks compiled to implicit trap sites", 0, func(r *RunCounters) int64 { return int64(r.Checks.Implicit) }},
	{"static.explicit_left", "explicit checks surviving compilation", 0, func(r *RunCounters) int64 { return int64(r.Checks.ExplicitRemaining) }},
	{"static.eliminated", "checks eliminated at compile time", 0, func(r *RunCounters) int64 { return int64(r.Checks.Eliminated) }},
	{"attr.implicit_cycles", "cycles attributed to implicit-check sites", needsAttr, func(r *RunCounters) int64 { return r.Attr.ImplicitCycles }},
	{"attr.explicit_cycles", "cycles attributed to explicit checks", needsAttr, func(r *RunCounters) int64 { return r.Attr.ExplicitCycles }},
	{"attr.trap_cycles", "cycles attributed to trap dispatch", needsAttr, func(r *RunCounters) int64 { return r.Attr.TrapCycles }},
	{"attr.guard_free_cycles", "cycles outside any null-check machinery", needsAttr, func(r *RunCounters) int64 { return r.Attr.GuardFree }},
}

// publishRun adds one run's counters to reg: the sweep rows, or the
// single-run rows. A nil r only registers the sweep rows, so the sweep
// snapshot has a fixed shape; a row whose optional source is missing is
// skipped.
func publishRun(reg *obs.Registry, r *RunCounters, sweep bool) {
	skip := runOnly
	if !sweep {
		skip = sweepOnly
	}
	for _, row := range runMetrics {
		switch {
		case row.flags&skip != 0:
		case r == nil:
			reg.Counter(row.name, row.help)
		case row.flags&needsProfile != 0 && r.Profile == nil, row.flags&needsAttr != 0 && r.Attr == nil:
		default:
			reg.Counter(row.name, row.help).Add(row.value(r))
		}
	}
}

// RunMetrics is the single-run metrics snapshot: the engine's dynamic
// counters, the compilation's static check statistics, and — when the run
// carried attribution — the four-bucket cycle ledger.
func RunMetrics(r RunCounters) *obs.Registry {
	reg := obs.NewRegistry()
	publishRun(reg, &r, false)
	return reg
}

// registerSweepMetrics pre-registers the main sweep's metric set in fixed
// order, so snapshots render identically no matter which cells ran or in
// what order the counters were touched.
func registerSweepMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.Counter("bench.cells", "measured (config, workload) cells")
	reg.Counter("bench.cell_errors", "cells that degraded to ERROR entries")
	reg.Histogram("bench.cell_cycles", "simulated cycles per cell",
		[]int64{1_000, 10_000, 100_000, 1_000_000, 10_000_000, 100_000_000})
	publishRun(reg, nil, true)
	registerCacheMetrics(reg)
}

func registerCacheMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.Counter("cache.lookups", "compile cache lookups")
	reg.Counter("cache.hits", "compile cache hits")
	reg.Counter("cache.misses", "compile cache misses")
	reg.Counter("cache.evictions", "compile cache capacity evictions")
	reg.Counter("cache.injected_fault_repairs", "injected cache faults repaired by recompiling")
	reg.VolatileCounter("cache.single_flight_waits", "lookups that blocked on an in-flight compile (interleaving-dependent)")
}

// registerTierMetrics pre-registers the tiered sweep's counters.
func registerTierMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.Counter("tier.promotions_t1", "interpreter -> closure promotions")
	reg.Counter("tier.promotions_t2", "closure -> speculative promotions")
	reg.Counter("tier.osr_entries", "mid-invocation on-stack replacements")
	reg.Counter("tier.deopts", "speculation guards fired")
	reg.Counter("tier.spec_live", "methods at tier 2 at end of cell")
	reg.Counter("tier.budget_exhausted", "methods parked by the recompile budget")
	reg.VolatileCounter("tier.compile_host_us", "host microseconds spent in tier recompiles")
	registerCacheMetrics(reg)
}

// registerGovernorMetrics pre-registers the degradation sweep's counters.
func registerGovernorMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.Counter("governor.site_execs", "marked-site executions observed")
	reg.Counter("governor.site_nulls", "null outcomes at marked sites")
	reg.Counter("governor.demotions", "sites demoted to explicit checks")
	reg.Counter("governor.recompiles", "governed recompiles performed")
	reg.Counter("governor.backoffs", "traps swallowed by backoff windows")
	reg.Counter("governor.pins", "methods pinned conservative")
	reg.VolatileCounter("governor.compile_host_us", "host microseconds spent in governed recompiles")
	registerCacheMetrics(reg)
}

// publishCellMetrics folds one finished main-sweep cell into the registry.
func publishCellMetrics(reg *obs.Registry, c *Cell) {
	if reg == nil || c == nil {
		return
	}
	reg.Counter("bench.cells", "").Add(1)
	if c.Failed() {
		reg.Counter("bench.cell_errors", "").Add(1)
		return
	}
	reg.Histogram("bench.cell_cycles", "", nil).Observe(c.Cycles)
	publishRun(reg, &RunCounters{Exec: c.Exec, Checks: c.Static.Checks, Profile: c.Profile, Attr: c.Attr}, true)
}

// publishCacheMetrics folds one sweep's cache traffic into the registry.
func publishCacheMetrics(reg *obs.Registry, st jit.CacheStats) {
	if reg == nil {
		return
	}
	reg.Counter("cache.lookups", "").Add(st.Lookups)
	reg.Counter("cache.hits", "").Add(st.Hits)
	reg.Counter("cache.misses", "").Add(st.Misses)
	reg.Counter("cache.evictions", "").Add(st.Evictions)
	reg.Counter("cache.injected_fault_repairs", "").Add(st.InjectedFaults)
	reg.VolatileCounter("cache.single_flight_waits", "").Add(st.SingleFlightWaits)
}

// noteCacheEvents appends one sweep's aggregated cache lifecycle events
// (evictions, chaos faults) to the timeline as notes. EventLog is sorted by
// (key, kind), so the notes are deterministic.
func noteCacheEvents(tl *obs.Timeline, label string, cache *jit.Cache) {
	if tl == nil || cache == nil {
		return
	}
	for _, ev := range cache.EventLog() {
		tl.Note(fmt.Sprintf("cache[%s] %s %s x%d", label, ev.Kind, ev.Key, ev.Count))
	}
}

// attachRecorder wires a flight recorder (and, for untiered machines,
// trap-cost attribution) into a cell's machine. Returns nil when the sweep
// carries no timeline, keeping the default path recorder-free.
func attachRecorder(tl *obs.Timeline, mach *machine.Machine, attribute bool) *obs.Recorder {
	if tl == nil {
		return nil
	}
	rec := obs.NewRecorder(0)
	mach.Recorder = rec
	if attribute {
		mach.EnableAttribution()
	}
	return rec
}

// publishTierMetrics folds one tiered cell's controller report into the
// registry.
func publishTierMetrics(reg *obs.Registry, c *PolicyCell) {
	if reg == nil {
		return
	}
	reg.Counter("tier.promotions_t1", "").Add(int64(c.PromotionsT1))
	reg.Counter("tier.promotions_t2", "").Add(int64(c.PromotionsT2))
	reg.Counter("tier.osr_entries", "").Add(int64(c.OSREntries))
	reg.Counter("tier.deopts", "").Add(int64(c.Deopts))
	reg.Counter("tier.spec_live", "").Add(int64(c.SpecLive))
	reg.Counter("tier.budget_exhausted", "").Add(int64(len(c.BudgetExhausted)))
	reg.VolatileCounter("tier.compile_host_us", "").Add(int64(c.TierReport.CompileHost / time.Microsecond))
}

// publishGovernorMetrics folds one degradation cell's governor report into
// the registry.
func publishGovernorMetrics(reg *obs.Registry, c *PolicyCell) {
	if reg == nil {
		return
	}
	r := c.GovernorReport
	reg.Counter("governor.site_execs", "").Add(r.SiteExecs)
	reg.Counter("governor.site_nulls", "").Add(r.SiteNulls)
	reg.Counter("governor.demotions", "").Add(int64(r.Demotions))
	reg.Counter("governor.recompiles", "").Add(int64(r.Recompiles))
	reg.Counter("governor.backoffs", "").Add(r.Backoffs)
	reg.Counter("governor.pins", "").Add(int64(len(r.Pinned)))
	reg.VolatileCounter("governor.compile_host_us", "").Add(int64(r.CompileHost / time.Microsecond))
}

// repWindow is one invocation's wall span and step range, for placing
// logically-clocked events inside a cell's trace lane.
type repWindow struct {
	start  time.Time
	dur    time.Duration
	s0, s1 int64
}

// publishTimeline lands one cell's recorded events (and optional ledger) in
// the timeline and — when the sweep also traces — replays each event as a
// Perfetto instant marker on the cell's lane. The recorder itself holds
// logical clocks only; the wall position is derived here as the event's
// step fraction of its invocation's window, so the instants line up with the
// span they annotate without the recorder ever touching wall time.
func publishTimeline(tl *obs.Timeline, tr *obs.Trace, name string, rec *obs.Recorder,
	attr *obs.Attribution, tid int64, wins []repWindow) {
	if rec == nil {
		return
	}
	tl.Add(name, rec, attr)
	if tr == nil {
		return
	}
	for _, e := range rec.Events() {
		var at time.Time
		switch {
		case e.Invocation >= 1 && e.Invocation <= len(wins):
			w := wins[e.Invocation-1]
			at = w.start
			if span := w.s1 - w.s0; span > 0 && e.Step > w.s0 {
				frac := float64(e.Step-w.s0) / float64(span)
				if frac > 1 {
					frac = 1
				}
				at = w.start.Add(time.Duration(float64(w.dur) * frac))
			}
		case len(wins) > 0:
			// Recorded before the first invocation (a chaos arm) or in one
			// that never finished: pin the marker to the last window's start.
			at = wins[len(wins)-1].start
		default:
			continue
		}
		args := map[string]any{"invocation": e.Invocation, "step": e.Step}
		if e.Detail != "" {
			args["detail"] = e.Detail
		}
		tr.Instant(tid, e.Cat, e.Kind+" "+e.Subject, at, args)
	}
}
