package machine

import (
	"fmt"
	"sort"
	"time"

	"trapnull/internal/ir"
	"trapnull/internal/obs"
)

// Trap-storm governor.
//
// Implicit null checks are free only while null never happens: one hardware
// trap costs TrapDispatchCycles (~5000) where an explicit check costs 1–2
// cycles plus a cheap software throw. The governor watches the per-site trap
// profile of the running artifacts and, when a site's observed null rate
// crosses the policy threshold, demotes that site from implicit back to
// explicit by recompiling the whole program under a grown demote set
// (jit.DemoteSet — method name → stable trap-site ordinals). Demotion is
// monotone: a demoted site never returns to implicit, so with finitely many
// sites and a bounded per-method recompile budget the governor always
// converges. The budget's last recompile is terminal: the method is "pinned
// conservative" — every site demoted — and the governor never touches it
// again. Exponential backoff between recompiles (counted in swallowed traps)
// keeps a flapping profile from thrashing the compiler.
//
// The governor rides the tier controller's dispatch table: adopted governed
// artifacts replace methodTier.fn0, so both engines and every tier rung
// dispatch to them on the next invocation. Demotion only inserts explicit
// check instructions (never moves, splits or reorders blocks), so governed
// artifacts stay block-aligned with their predecessors and block-boundary
// OSR remains an exact state transfer. Tier-2 speculation is disabled while
// the governor runs — check ordinals shift between demoted generations, and
// the two policies bet in opposite directions anyway.
//
// Per-site profiling reuses obs.CheckCounts: prepare() binds one canonical
// counter cell per (method, trap-site ordinal), aliased across artifact
// generations, incremented on every site execution (Execs) and every trap
// (Nulls). The trigger runs on the trap path only, so the no-trap fast path
// pays nothing beyond the Execs increment.

// GovernorPolicy sets the demotion thresholds.
type GovernorPolicy struct {
	// MinSiteExecs is the minimum observed executions of a site before its
	// null rate is trusted; below it no demotion triggers.
	MinSiteExecs int64
	// NullPerMille is the demotion threshold: a site whose observed nulls
	// exceed this rate (per thousand executions) is demoted.
	NullPerMille int64
	// RecompileBudget bounds governed recompiles per method. The budget's
	// last recompile pins the method conservative (every site demoted) —
	// the terminal graceful floor.
	RecompileBudget int
	// BackoffTraps is how many traps the governor swallows after a
	// recompile before the next trigger may fire; it doubles with each
	// recompile of the method (exponential backoff).
	BackoffTraps int64
}

// DefaultGovernorPolicy returns the thresholds the degradation harness uses.
func DefaultGovernorPolicy() GovernorPolicy {
	return GovernorPolicy{MinSiteExecs: 256, NullPerMille: 5, RecompileBudget: 3, BackoffTraps: 16}
}

// GovernorEvent is one demotion decision, in occurrence order.
type GovernorEvent struct {
	Method string `json:"method"`
	// Kind is "demote" (one site), "pin" (budget exhausted: every site,
	// terminal) or "recompile-error" (compile failed; the method keeps its
	// current artifact and the governor pins it to stop retrying).
	Kind string `json:"kind"`
	// Site is the demoted trap-site ordinal; -1 for pin/recompile-error.
	Site int `json:"site"`
	// Demoted is the method's total demoted sites after this event.
	Demoted int `json:"demoted"`
}

// GovernorReport is the governor's summary for the degradation tables.
type GovernorReport struct {
	Events      []GovernorEvent
	Demotions   int // total sites demoted across all methods
	Recompiles  int // governed recompiles performed
	Pinned      []string
	CompileHost time.Duration
	// SiteExecs/SiteNulls total the canonical per-site profile across every
	// governed method: how many times marked sites executed and how many of
	// those executions were null (trapped or explicitly caught).
	SiteExecs int64
	SiteNulls int64
	// Backoffs counts traps the backoff windows swallowed without
	// evaluating the demotion trigger.
	Backoffs int64
}

// govMethod is one method's governor state.
type govMethod struct {
	recompiles int
	backoff    int64
	pinned     bool
}

// govSite locates a registered exception site: its method and stable ordinal.
type govSite struct {
	mt   *methodTier
	ord  int
	cell *obs.CheckCounts
}

// governor is the tier controller's trap-storm state (tierController.gov).
type governor struct {
	policy  GovernorPolicy
	compile Recompiler

	// demote is the monotone demote set handed to the compiler; demoted
	// mirrors it as membership sets.
	demote  map[string][]int
	demoted map[string]map[int]bool
	state   map[string]*govMethod
	// cells holds the canonical per-(method, ordinal) profile counters,
	// aliased onto every artifact generation at prepare time; refs maps a
	// generation's site instructions back to their coordinates for the trap
	// path.
	cells map[string]map[int]*obs.CheckCounts
	refs  map[*ir.Instr]*govSite

	events      []GovernorEvent
	recompiles  int
	backoffs    int64
	compileHost time.Duration
}

// EnableGovernor switches the machine's tier controller to governed
// execution. If the machine is untiered, tiering is enabled with promotion
// disabled — the governor only needs the dispatch table; callers wanting the
// closure ladder call EnableTiering first. Tier-2 speculation is disabled
// for the controller's lifetime (the governor clears its compiler).
func (m *Machine) EnableGovernor(policy GovernorPolicy, compile Recompiler) {
	if m.tier == nil {
		m.EnableTiering(TierPolicy{}, nil)
	}
	m.tier.compile = nil
	m.tier.gov = &governor{
		policy:  policy,
		compile: compile,
		demote:  make(map[string][]int),
		demoted: make(map[string]map[int]bool),
		state:   make(map[string]*govMethod),
		cells:   make(map[string]map[int]*obs.CheckCounts),
		refs:    make(map[*ir.Instr]*govSite),
	}
	// Drop prepared tables so the next prepare() binds site counters.
	m.ResetPrepared()
}

// GovernorReport returns the governor's event log and totals; zero when no
// governor is attached.
func (m *Machine) GovernorReport() GovernorReport {
	if m.tier == nil || m.tier.gov == nil {
		return GovernorReport{}
	}
	g := m.tier.gov
	r := GovernorReport{Events: g.events, Recompiles: g.recompiles,
		Backoffs: g.backoffs, CompileHost: g.compileHost}
	for _, ords := range g.demote {
		r.Demotions += len(ords)
	}
	for name, gm := range g.state {
		if gm.pinned {
			r.Pinned = append(r.Pinned, name)
		}
	}
	// Sums over the canonical cells are commutative, so map iteration order
	// cannot leak into the report.
	for _, per := range g.cells {
		for _, c := range per {
			r.SiteExecs += c.Execs
			r.SiteNulls += c.Nulls
		}
	}
	sort.Strings(r.Pinned)
	return r
}

// methodState returns (creating on demand) the governor state for a method.
func (g *governor) methodState(name string) *govMethod {
	gm := g.state[name]
	if gm == nil {
		gm = &govMethod{}
		g.state[name] = gm
	}
	return gm
}

// cell returns the canonical counter for (method, ordinal).
func (g *governor) cell(name string, ord int) *obs.CheckCounts {
	per := g.cells[name]
	if per == nil {
		per = make(map[int]*obs.CheckCounts)
		g.cells[name] = per
	}
	c := per[ord]
	if c == nil {
		c = &obs.CheckCounts{}
		per[ord] = c
	}
	return c
}

// bind attaches the canonical site counter to one prepared instruction. Both
// current exception sites and demoted explicit checks carry TrapSite tags,
// so a site's Execs/Nulls keep accumulating into one cell across the
// implicit→explicit transition and every artifact generation.
func (g *governor) bind(t *tierController, fn *ir.Func, pin *pInstr) {
	in := pin.in
	if in.TrapSite == 0 {
		return
	}
	mt := t.byFn[fn]
	if mt == nil {
		return
	}
	cell := g.cell(mt.name, int(in.TrapSite)-1)
	pin.chk = cell
	t.m.Profile.BindCheck(in, cell)
	if in.ExcSite {
		g.refs[in] = &govSite{mt: mt, ord: int(in.TrapSite) - 1, cell: cell}
	}
}

// siteTrapped is the trap-path notification: a hardware trap fired at a
// marked exception site. It charges the site's null counter and evaluates
// the demotion trigger. Runs only on traps, never on the fast path.
func (t *tierController) siteTrapped(in *ir.Instr) {
	g := t.gov
	if g == nil {
		return
	}
	ref := g.refs[in]
	if ref == nil {
		return
	}
	ref.cell.Nulls++
	g.trigger(t, ref)
}

// trigger decides whether the trap that just fired demotes its site. The
// decision ladder: pinned methods are terminal; backoff swallows traps after
// a recompile; thin or below-threshold profiles wait; sites already demoted
// (still trapping in a stale frame of the previous generation) never
// retrigger. A firing trigger grows the demote set — the budget's last
// recompile demotes every site (pin) — recompiles through the compiler, and
// adopts the new artifact for all future invocations.
func (g *governor) trigger(t *tierController, ref *govSite) {
	gm := g.methodState(ref.mt.name)
	if gm.pinned {
		return
	}
	if gm.backoff > 0 {
		gm.backoff--
		g.backoffs++
		return
	}
	c := ref.cell
	if c.Execs < g.policy.MinSiteExecs {
		return
	}
	if c.Nulls*1000 < g.policy.NullPerMille*c.Execs {
		return
	}
	if g.demoted[ref.mt.name][ref.ord] {
		return
	}
	if g.compile == nil {
		return
	}

	name := ref.mt.name
	gm.recompiles++
	g.recompiles++
	shift := uint(gm.recompiles - 1)
	if shift > 20 {
		shift = 20
	}
	gm.backoff = g.policy.BackoffTraps << shift
	if gm.recompiles >= g.policy.RecompileBudget {
		// Terminal pin: demote every site of the method, known and future —
		// the artifact after this recompile carries no implicit sites, so
		// the method can never trigger again.
		g.demoteAll(ref.mt)
		gm.pinned = true
		g.events = append(g.events, GovernorEvent{
			Method: name, Kind: "pin", Site: -1, Demoted: len(g.demote[name])})
		t.m.Recorder.Record(t.m.steps, "governor", "pin", name,
			fmt.Sprintf("budget spent: %d sites demoted", len(g.demote[name])))
	} else {
		g.addDemote(name, ref.ord)
		g.events = append(g.events, GovernorEvent{
			Method: name, Kind: "demote", Site: ref.ord, Demoted: len(g.demote[name])})
		t.m.Recorder.Record(t.m.steps, "governor", "demote", name,
			fmt.Sprintf("site %d: %d/%d nulls", ref.ord, c.Nulls, c.Execs))
	}
	if gm.backoff > 0 {
		t.m.Recorder.Record(t.m.steps, "governor", "backoff-armed", name,
			fmt.Sprintf("swallowing next %d traps", gm.backoff))
	}

	start := time.Now()
	prog2, err := g.compile(g.demote)
	g.compileHost += time.Since(start)
	if err != nil {
		// Graceful floor on compile failure: keep the current (correct)
		// artifact, stop retrying. The site keeps paying traps, but the
		// run completes with the exact same Outcome.
		gm.pinned = true
		g.events = append(g.events, GovernorEvent{
			Method: name, Kind: "recompile-error", Site: -1, Demoted: len(g.demote[name])})
		t.m.Recorder.Record(t.m.steps, "governor", "recompile-error", name, err.Error())
		return
	}
	g.adopt(t, prog2)
}

// addDemote grows the monotone demote set.
func (g *governor) addDemote(name string, ord int) {
	set := g.demoted[name]
	if set == nil {
		set = make(map[int]bool)
		g.demoted[name] = set
	}
	if set[ord] {
		return
	}
	set[ord] = true
	g.demote[name] = append(g.demote[name], ord)
	sort.Ints(g.demote[name])
}

// demoteAll demotes every trap-site ordinal of the method: the ones still
// implicit in the current artifact plus everything already demoted.
func (g *governor) demoteAll(mt *methodTier) {
	for _, b := range mt.fn0.Blocks {
		for _, in := range b.Instrs {
			if in.TrapSite != 0 {
				g.addDemote(mt.name, int(in.TrapSite)-1)
			}
		}
	}
}

// adopt installs a governed program generation: every method body maps into
// the tier table and becomes that method's conservative artifact, so the
// next invocation (any rung, either engine) dispatches to it. The faulting
// invocation finishes on the old artifact — the trap that triggered the
// recompile already became the correct NullPointerException — and site
// counters rebind lazily when the new bodies are prepared.
func (g *governor) adopt(t *tierController, prog2 *ir.Program) {
	byName := make(map[string]*methodTier, len(t.order))
	for _, mt := range t.order {
		byName[mt.name] = mt
	}
	for _, mth := range prog2.Methods {
		if mth.Fn == nil {
			continue
		}
		mt := byName[mth.QualifiedName()]
		if mt == nil {
			continue
		}
		t.byFn[mth.Fn] = mt
		// Governed generations are block-aligned with their predecessors
		// (demotion only inserts check instructions at existing sites), so the
		// block-entry profile keeps accumulating into one box across adoptions.
		t.m.Profile.BindCounters(mth.Fn, mt.fn0)
		mt.fn0 = mth.Fn
		mt.fn2, mt.cf2, mt.spec = nil, nil, nil
		if mt.tier == tierSpec {
			mt.tier = tierClosure
		}
	}
}
