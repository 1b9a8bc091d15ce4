package machine

import (
	"math"

	"trapnull/internal/ir"
	"trapnull/internal/obs"
)

// This file implements the prepared-instruction tables of the exec loop.
// Operand classification (the switch over Operand.Kind the interpreter used
// to re-run on every dynamic instruction) is hoisted to a once-per-function
// decode: each operand becomes a pOp that either names a local slot or
// carries both integer and float views of its constant, and each block gets
// a pInstr slice parallel to its Instrs. Tables are kept per *ir.Func and
// invalidated by pointer identity — every compilation builds fresh Func
// values, so a stale table cannot be observed as long as a function's IR is
// not mutated between Calls on the same Machine (nothing in this repository
// does; compilation always completes before execution starts).

// pOp is a pre-decoded operand: a local slot index, or a constant carried in
// both of the views the exec loop needs.
type pOp struct {
	varIdx  int32 // local slot, or -1 for constants
	isFloat bool  // float-kinded (float constant or float-kinded local)
	i64     int64 // constant as the integer word val() yields
	f64     float64
}

// pInstr pairs an instruction with its pre-decoded operands and its static
// cycle cost under the machine's model (Arch.Cost, bound once like the
// closures' costs). chk is the per-check profile cell, bound once at prepare
// time for OpNullCheck when a profile is attached, so the hot path pays plain
// field increments and never a map lookup.
type pInstr struct {
	in   *ir.Instr
	args []pOp
	chk  *obs.CheckCounts
	cost int64
}

// pFunc holds one function's prepared blocks, dense by Block.ID.
type pFunc struct {
	blocks [][]pInstr
}

// val reads an operand's integer word: operands were pre-classified by
// prepare, so this is the whole residue of a per-step `switch o.Kind` decode.
func val(locals []int64, p *pOp) int64 {
	if p.varIdx >= 0 {
		return locals[p.varIdx]
	}
	return p.i64
}

// fval reads an operand's float view.
func fval(locals []int64, p *pOp) float64 {
	if p.varIdx >= 0 {
		return math.Float64frombits(uint64(locals[p.varIdx]))
	}
	return p.f64
}

func decodeOperand(fn *ir.Func, o ir.Operand) pOp {
	switch o.Kind {
	case ir.OperVar:
		return pOp{varIdx: int32(o.Var), isFloat: fn.Locals[o.Var].Kind == ir.KindFloat}
	case ir.OperConstInt:
		return pOp{varIdx: -1, i64: o.Int, f64: float64(o.Int)}
	case ir.OperConstFloat:
		return pOp{varIdx: -1, isFloat: true, i64: int64(math.Float64bits(o.Float)), f64: o.Float}
	default: // null (and the invalid zero operand): the zero word
		return pOp{varIdx: -1}
	}
}

// fnEntry is one function's entry in the per-Machine table: the prepared
// table and, once the function has turned hot (or PrecompileClosures ran),
// its compiled code.
type fnEntry struct {
	pf *pFunc
	cf *cFunc
	// countdown is the number of block entries, across all calls, that
	// interp interprets fn for before fn turns hot (Machine.hot). prepare
	// arms it: at hotBlockEntries on an untiered closure-engine machine, at
	// the policy's T1Blocks for a tiered machine's tier-0 method bodies.
	// Elsewhere it stays 0, which never expires, and compiled sets it to 0
	// when fn gets closure code.
	countdown int64
}

// hotBlockEntries is how many block entries make a function hot on an
// untiered closure-engine machine; DefaultTierPolicy's T1Blocks is the same
// count.
const hotBlockEntries = 2048

// ResetPrepared empties the per-function table (prepared operands,
// closure-compiled code and hot countdowns); the next Call of each function
// prepares it again and restarts its countdown. It is the invalidation hook
// for code that swaps Method.Fn between Calls — triage's bisection replays —
// and for machine settings that prepare binds (EnableTiering,
// EnableGovernor, EnableAttribution). Tables still referenced by an
// in-flight exec remain valid; only the entries are dropped.
func (m *Machine) ResetPrepared() {
	clear(m.fns)
	// Tier state indexes compiled artifacts by *ir.Func identity too; a replay
	// that swaps Func values must not dispatch through a stale speculative
	// closure, so the controller rebuilds from the current program.
	if m.tier != nil {
		m.tier.reset()
	}
}

// prepare returns fn's table entry, building its prepared table on first
// use.
func (m *Machine) prepare(fn *ir.Func) *fnEntry {
	if e, ok := m.fns[fn]; ok {
		return e
	}
	if m.fns == nil {
		m.fns = make(map[*ir.Func]*fnEntry)
	}
	pf := &pFunc{blocks: make([][]pInstr, fn.MaxBlockID()+1)}
	for _, b := range fn.Blocks {
		pins := make([]pInstr, len(b.Instrs))
		for i, in := range b.Instrs {
			args := make([]pOp, len(in.Args))
			for j, o := range in.Args {
				args[j] = decodeOperand(fn, o)
			}
			pins[i] = pInstr{in: in, args: args, cost: m.Arch.Cost(in)}
			if in.Op == ir.OpNullCheck && m.Profile != nil {
				pins[i].chk = m.Profile.CheckCounter(in)
			}
			if m.attrSites && in.ExcSite && m.Profile != nil {
				// Attribution counts executions at implicit sites too; the
				// governor bind below overrides with its canonical cell when
				// both are somehow enabled, so traps are never double-counted.
				pins[i].chk = m.Profile.CheckCounter(in)
			}
			if m.tier != nil && m.tier.gov != nil {
				// Governed machines profile trap sites (and demoted checks)
				// through canonical per-(method, ordinal) cells that survive
				// artifact generations; see tierController.bindSite.
				m.tier.bindSite(fn, &pins[i])
			}
		}
		pf.blocks[b.ID] = pins
	}
	// Arm the hot countdown. A tiered machine arms only a tier-0 method's
	// body: with promotion disabled it stays 0, and a body outside the
	// program runs compiled at once.
	e := &fnEntry{pf: pf}
	if t := m.tier; t != nil {
		if mt := t.stateOf(fn); mt != nil && mt.tier == tierInterp {
			e.countdown = max(t.policy.T1Blocks, 0)
		}
	} else if m.Engine == EngineClosure {
		e.countdown = hotBlockEntries
	}
	m.fns[fn] = e
	return e
}

// succeed carries a tier-0 method's hot countdown from its body old to
// next, the body of a governed generation adopted in its place. Frames of
// old still running keep counting down old's table entry, so next takes
// that entry over, with next's prepared table swapped in, and old gets a
// fresh entry holding old's table: every frame of the method counts down
// one countdown.
func (m *Machine) succeed(old, next *ir.Func) {
	e := m.fns[old]
	if e == nil || e.countdown <= 0 {
		return // not armed, or old never ran: next arms its own when prepared
	}
	n := m.prepare(next)
	e.pf, n.pf = n.pf, e.pf
	m.fns[old], m.fns[next] = n, e
}
