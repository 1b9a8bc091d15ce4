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
// The governor is part of the tier controller: its per-method state lives on
// the method's record (methodTier), and its recompiles go through the
// controller's one generation path (recompile, then adopt), whose governed
// generations replace methodTier.fn0, so both engines and every tier rung
// dispatch to them on the next invocation. Demotion only inserts explicit
// check instructions (never moves, splits or reorders blocks), so governed
// artifacts stay block-aligned with their predecessors and block-boundary
// OSR remains an exact state transfer. Tier-2 speculation is disabled while
// the governor runs — check ordinals shift between demoted generations, and
// the two policies bet in opposite directions anyway.
//
// The governor owns its per-site counts: one obs.CheckCounts cell per
// (method, trap-site ordinal) on the method's record (govMethod.cells), which
// prepare binds into every artifact generation, incremented on every site
// execution (Execs) and every trap (Nulls). The trigger runs on the trap
// path only, so the no-trap fast path pays nothing beyond the Execs
// increment.

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

// GovernorReport is the governor's summary for the degradation tables. Its
// decisions are in the machine's decision log (category "governor"): demote
// (one site), pin (budget spent: every site, terminal), recompile-error
// (compile failed; the method keeps its current artifact and is pinned to
// stop retrying) and backoff-armed. Each names the method, the demoted site
// ordinal as Ord (-1 for all but demote) and the method's demoted sites
// after it as Count.
type GovernorReport struct {
	Demotions   int // total sites demoted across all methods
	Recompiles  int // governed recompiles performed: the log's demotes and pins
	Pinned      []string
	CompileHost time.Duration
	// SiteExecs/SiteNulls total the canonical per-site counts across every
	// governed method: how many times marked sites executed and how many of
	// those executions were null (trapped or explicitly caught).
	SiteExecs int64
	SiteNulls int64
	// Backoffs counts traps the backoff windows swallowed without
	// evaluating the demotion trigger.
	Backoffs int64
}

// govMethod is one method's governor state, embedded in its methodTier
// record. It survives reset: demotion is monotone.
type govMethod struct {
	demote     ordSet // trap-site ordinals demoted to explicit checks
	recompiles int
	backoff    int64
	pinned     bool
	// cells holds the canonical per-site counters, by trap-site ordinal,
	// bound into every artifact generation at prepare time.
	cells ordCells
}

// govSite locates a registered exception site: its method and stable ordinal.
type govSite struct {
	mt   *methodTier
	ord  int
	cell *obs.CheckCounts
}

// governor is the tier controller's trap-storm state (tierController.gov).
type governor struct {
	policy GovernorPolicy
	// sites maps the prepared generations' exception-site instructions back
	// to their coordinates for the trap path.
	sites map[*ir.Instr]govSite

	backoffs    int64
	compileHost time.Duration
}

// EnableGovernor switches the machine's tier controller to governed
// execution. If the machine is untiered, tiering is enabled with promotion
// disabled — the governor only needs the dispatch table; callers wanting the
// closure ladder call EnableTiering first. compile replaces the controller's
// recompiler, and tier-2 speculation is disabled for the controller's
// lifetime.
func (m *Machine) EnableGovernor(policy GovernorPolicy, compile Recompiler) {
	if m.tier == nil {
		m.EnableTiering(TierPolicy{}, nil)
	}
	m.tier.compile = compile
	m.tier.gov = &governor{policy: policy}
	// Rebuild the table and drop prepared tables so the next prepare() binds
	// site counters.
	m.ResetPrepared()
}

// GovernorReport returns the governor's totals; zero when no governor is
// attached.
func (m *Machine) GovernorReport() GovernorReport {
	if m.tier == nil || m.tier.gov == nil {
		return GovernorReport{}
	}
	g := m.tier.gov
	r := GovernorReport{Recompiles: obs.Count(m.Decisions(), "demote", "pin"),
		Backoffs: g.backoffs, CompileHost: g.compileHost}
	for _, mt := range m.tier.order {
		r.Demotions += len(mt.demote)
		if mt.pinned {
			r.Pinned = append(r.Pinned, mt.name)
		}
		for _, c := range mt.cells {
			if c != nil {
				r.SiteExecs += c.Execs
				r.SiteNulls += c.Nulls
			}
		}
	}
	sort.Strings(r.Pinned)
	return r
}

// bindSite returns mt's canonical site counter for in, an instruction with
// a TrapSite tag, and registers in for the trap path when it is an exception
// site. Both current exception sites and demoted explicit checks carry
// TrapSite tags, so a site's Execs/Nulls keep accumulating into one cell
// across the implicit→explicit transition and every artifact generation.
func (t *tierController) bindSite(mt *methodTier, in *ir.Instr) *obs.CheckCounts {
	ord := int(in.TrapSite) - 1
	cell := mt.cells.at(ord)
	if in.ExcSite {
		t.gov.sites[in] = govSite{mt: mt, ord: ord, cell: cell}
	}
	return cell
}

// siteTrapped is the trap-path notification: a hardware trap fired at a
// marked exception site. It charges the site's null counter and holds the
// demotion trigger for settle, which both engines call when they dispatch
// the trap's raise. Runs only on traps, never on the fast path.
func (t *tierController) siteTrapped(in *ir.Instr) {
	if t.gov == nil {
		return
	}
	site, ok := t.gov.sites[in]
	if !ok {
		return
	}
	site.cell.Nulls++
	t.site, t.siteFired = site, true
}

// trigger decides whether the trap that just fired demotes its site. The
// decision ladder: pinned methods are terminal; backoff swallows traps after
// a recompile; thin or below-threshold profiles wait; sites already demoted
// (still trapping in a stale frame of the previous generation) never
// retrigger. A firing trigger grows the demote set — the budget's last
// recompile demotes every site (pin) — recompiles the program under every
// method's demote set, and adopts the new generation for all future
// invocations.
func (t *tierController) trigger(site govSite) {
	g, mt, c := t.gov, site.mt, site.cell
	switch {
	case mt.pinned:
		return
	case mt.backoff > 0:
		mt.backoff--
		g.backoffs++
		return
	case c.Execs < g.policy.MinSiteExecs, c.Nulls*1000 < g.policy.NullPerMille*c.Execs,
		mt.demote.has(site.ord), t.compile == nil:
		return
	}

	mt.recompiles++
	mt.backoff = backoff(g.policy.BackoffTraps, mt.recompiles-1)
	kind, ord, detail := "demote", site.ord, fmt.Sprintf("site %d: %d/%d nulls", site.ord, c.Nulls, c.Execs)
	if mt.recompiles >= g.policy.RecompileBudget {
		// Terminal pin: demote every site of the method, known and future —
		// the artifact after this recompile carries no implicit sites, so
		// the method can never trigger again.
		for _, b := range mt.fn0.Blocks {
			for _, in := range b.Instrs {
				if in.TrapSite != 0 {
					mt.demote.add(int(in.TrapSite) - 1)
				}
			}
		}
		mt.pinned = true
		kind, ord, detail = "pin", -1, fmt.Sprintf("budget spent: %d sites demoted", len(mt.demote))
	} else {
		mt.demote.add(site.ord)
	}
	t.m.decide("governor", kind, mt.name, ord, len(mt.demote), detail)
	if mt.backoff > 0 {
		t.m.decide("governor", "backoff-armed", mt.name, -1, len(mt.demote), fmt.Sprintf("swallowing next %d traps", mt.backoff))
	}

	prog, err := t.recompile(t.siteSet(func(o *methodTier) []int { return o.demote }))
	if err != nil {
		// Graceful floor on compile failure: keep the current (correct)
		// artifact, stop retrying. The site keeps paying traps, but the
		// run completes with the exact same Outcome.
		mt.pinned = true
		t.m.decide("governor", "recompile-error", mt.name, -1, len(mt.demote), err.Error())
		return
	}
	t.adopt(prog, nil)
}
