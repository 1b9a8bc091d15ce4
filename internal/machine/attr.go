package machine

import (
	"trapnull/internal/ir"
	"trapnull/internal/obs"
)

// Trap-cost attribution (obs.Attribution) for untiered machines: the machine
// owns one CheckCounts cell per explicit check and implicit (ExcSite) site,
// prepare binds them, and CycleAttribution afterwards folds those per-site
// tallies through the architecture's cycle model into the four-bucket ledger.
// The ledger is analytic — no extra cycle accounting runs during execution —
// so conservation (buckets sum exactly to Machine.Cycles) holds by
// construction and the enabled overhead is two pointer increments per site
// execution.
//
// Attribution is an untiered, ungoverned facility: tiered execution mixes
// block-aligned generations whose per-site instruction mix differs
// (speculation deletes checks, demotion re-adds them), so a single
// per-site cost function does not exist there. EnableTiering and
// EnableGovernor machines simply report a nil ledger.

// Steps returns the cumulative dynamic step count — the logical clock
// the decision log's events are stamped with. Callers that merge recorded
// events into a wall-clock trace use it to place each event at its step
// fraction of the measured run.
func (m *Machine) Steps() int64 { return m.steps }

// EnableAttribution turns on per-trap-site cycle attribution. Call it before
// the first Call (it empties the per-function table so sites rebind).
func (m *Machine) EnableAttribution() {
	if m.attr == nil {
		m.attr = make(map[*ir.Instr]*obs.CheckCounts)
	}
	m.ResetPrepared()
}

// attrCell returns in's attribution cell, creating it on first use.
func (m *Machine) attrCell(in *ir.Instr) *obs.CheckCounts {
	c := m.attr[in]
	if c == nil {
		c = &obs.CheckCounts{}
		m.attr[in] = c
	}
	return c
}

// CycleAttribution builds the trap-cost ledger for everything this machine
// has executed so far. Returns nil when attribution was not enabled or the
// machine is tiered/governed (see package comment above). The walk order is
// Program.Methods declaration order — deterministic, map-free.
func (m *Machine) CycleAttribution() *obs.Attribution {
	if m.attr == nil || m.tier != nil {
		return nil
	}
	a := &obs.Attribution{
		TotalCycles: m.Cycles,
		TrapsTaken:  m.Stats.TrapsTaken,
		TrapCycles:  m.Stats.TrapsTaken * m.Arch.TrapDispatchCycles,
	}
	throwCost := m.Arch.TrapDispatchCycles / 5
	for _, mth := range m.Prog.Methods {
		if mth.Fn == nil {
			continue
		}
		label := mth.QualifiedName()
		for _, b := range mth.Fn.Blocks {
			for _, in := range b.Instrs {
				var kind string
				switch {
				case in.Op == ir.OpNullCheck && in.SpecGuard == 0:
					kind = "explicit"
				case in.ExcSite:
					kind = "implicit"
				default:
					continue
				}
				c := m.attr[in]
				if c == nil {
					continue // never prepared
				}
				site := obs.AttrSite{
					Method: label,
					Kind:   kind,
					Site:   int(in.TrapSite),
					Op:     in.Op.String(),
					Execs:  c.Execs,
					Nulls:  c.Nulls,
					Cycles: c.Execs * m.Arch.Cost(in),
				}
				if kind == "explicit" {
					// The nulls an explicit check catches pay the software
					// throw on top of the compare-and-branch itself.
					site.Cycles += c.Nulls * throwCost
					a.ExplicitCycles += site.Cycles
				} else {
					a.ImplicitCycles += site.Cycles
				}
				if site.Execs > 0 || site.Nulls > 0 {
					a.Sites = append(a.Sites, site)
				}
			}
		}
	}
	obs.SortSites(a.Sites)
	a.GuardFree = a.TotalCycles - a.ImplicitCycles - a.ExplicitCycles - a.TrapCycles
	return a
}
