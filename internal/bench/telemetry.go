package bench

import (
	"time"

	"trapnull/internal/machine"
	"trapnull/internal/nullcheck"
	"trapnull/internal/obs"
)

// Telemetry plumbing shared by the sweep modes: the metrics registry names
// and the merge of each cell's decision log into the timeline and the
// Perfetto trace.
//
// Determinism contract: everything published here is derived from simulated
// quantities (cycles, dynamic counters, logical clocks), never from host
// timing — with one deliberate exception registered as VOLATILE metrics
// (recompile host time), which obs.Registry.Snapshot excludes unless
// explicitly asked for. The deterministic snapshot of the
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
}

// counterRow declares one counter once: its name and help, whether it is
// volatile (host timing, so kept out of the deterministic snapshot), and what one source adds to it.
type counterRow[S any] struct {
	name, help string
	volatile   bool
	value      func(S) int64
}

// counterSet is a counter family declared once, in snapshot order.
type counterSet[S any] []counterRow[S]

func (r *counterRow[S]) metric(reg *obs.Registry) *obs.Metric {
	if r.volatile {
		return reg.VolatileCounter(r.name, r.help)
	}
	return reg.Counter(r.name, r.help)
}

// register pre-registers every row, fixing the snapshot order.
func (rows counterSet[S]) register(reg *obs.Registry) {
	for i := range rows {
		rows[i].metric(reg)
	}
}

// publish adds one source's values to reg.
func (rows counterSet[S]) publish(reg *obs.Registry, src S) {
	if reg == nil {
		return
	}
	for i := range rows {
		rows[i].metric(reg).Add(rows[i].value(src))
	}
}

// tierMetrics is one tiered cell's controller report.
var tierMetrics = counterSet[*PolicyCell]{
	{"tier.promotions_t1", "interpreter -> closure promotions", false, func(c *PolicyCell) int64 { return int64(c.PromotionsT1) }},
	{"tier.promotions_t2", "closure -> speculative promotions", false, func(c *PolicyCell) int64 { return int64(c.PromotionsT2) }},
	{"tier.osr_entries", "mid-invocation on-stack replacements", false, func(c *PolicyCell) int64 { return int64(c.OSREntries) }},
	{"tier.deopts", "speculation guards fired", false, func(c *PolicyCell) int64 { return int64(c.Deopts) }},
	{"tier.spec_live", "methods at tier 2 at end of cell", false, func(c *PolicyCell) int64 { return int64(c.SpecLive) }},
	{"tier.budget_exhausted", "methods parked by the recompile budget", false, func(c *PolicyCell) int64 { return int64(len(c.BudgetExhausted)) }},
	{"tier.compile_host_us", "host microseconds spent in tier recompiles", true, func(c *PolicyCell) int64 { return int64(c.TierReport.CompileHost / time.Microsecond) }},
}

// governorMetrics is one degradation cell's governor report.
var governorMetrics = counterSet[*PolicyCell]{
	{"governor.site_execs", "marked-site executions observed", false, func(c *PolicyCell) int64 { return c.GovernorReport.SiteExecs }},
	{"governor.site_nulls", "null outcomes at marked sites", false, func(c *PolicyCell) int64 { return c.GovernorReport.SiteNulls }},
	{"governor.demotions", "sites demoted to explicit checks", false, func(c *PolicyCell) int64 { return int64(c.GovernorReport.Demotions) }},
	{"governor.recompiles", "governed recompiles performed", false, func(c *PolicyCell) int64 { return int64(c.GovernorReport.Recompiles) }},
	{"governor.backoffs", "traps swallowed by backoff windows", false, func(c *PolicyCell) int64 { return c.GovernorReport.Backoffs }},
	{"governor.pins", "methods pinned conservative", false, func(c *PolicyCell) int64 { return int64(len(c.GovernorReport.Pinned)) }},
	{"governor.compile_host_us", "host microseconds spent in governed recompiles", true, func(c *PolicyCell) int64 { return int64(c.GovernorReport.CompileHost / time.Microsecond) }},
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

// repWindow is one invocation's wall span and step range, for placing
// logically-clocked events inside a cell's trace lane.
type repWindow struct {
	start  time.Time
	dur    time.Duration
	s0, s1 int64
}

// publishTimeline lands one cell's decision log (and optional ledger) in
// the timeline, when the sweep has one, and — when the sweep traces —
// replays each decision as a Perfetto instant marker on the cell's lane.
// The log holds logical clocks only; the wall position is derived here as
// the event's step fraction of its invocation's window, so the instants line
// up with the span they annotate without the log ever touching wall time.
func publishTimeline(tl *obs.Timeline, tr *obs.Trace, name string, events []obs.RecEvent,
	attr *obs.Attribution, tid int64, wins []repWindow) {
	tl.Add(name, events, attr)
	if tr == nil {
		return
	}
	for _, e := range events {
		var at time.Time
		switch {
		case e.Invocation >= 1 && e.Invocation <= len(wins):
			w := wins[e.Invocation-1]
			at = w.start
			if span := w.s1 - w.s0; span > 0 && e.Step > w.s0 {
				frac := min(float64(e.Step-w.s0)/float64(span), 1)
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
