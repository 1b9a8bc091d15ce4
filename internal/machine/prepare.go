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
// carries its constant's word, and each instruction a pInstr that records
// where its operands start. A function's table is two slabs, one of records
// and one of operands, each made once at its counted size; a block is a
// span of the record slab, so preparing a function costs the same few
// allocations whatever its size. Tables are kept per *ir.Func and
// invalidated by pointer identity — every compilation builds fresh Func
// values, so a stale table cannot be observed as long as a function's IR is
// not mutated between Calls on the same Machine (nothing in this repository
// does; compilation always completes before execution starts).

// pOp is a pre-decoded operand: a local slot index, or a constant word.
type pOp struct {
	varIdx  int32 // local slot, or -1 for constants
	isFloat bool  // float-kinded (float constant or float-kinded local)
	i64     int64 // constant as the integer word val() yields: a float's bits
}

// pInstr pairs an instruction with where its pre-decoded operands start in
// its function's operand slab (there are len(in.Args) of them) and its
// static cycle cost under the machine's model (Arch.Cost, bound once like
// the closures' costs). chk is the counter cell of whoever counts the
// instruction: the tier controller's speculation cell of a null check, the
// governor's cell of a trap site, or trap-cost attribution's cell of a check
// or site. prepare binds it once, so the hot path pays plain field
// increments and never a map lookup; it is nil where nothing counts.
type pInstr struct {
	in   *ir.Instr
	chk  *obs.CheckCounts
	arg  int32 // index of the first operand in pFunc.ops
	cost int32 // a model's per-instruction costs are tens of cycles
}

// pFunc holds one function's prepared table: every block's records in one
// slab, every record's operands in another, and each block's span of the
// record slab, dense by Block.ID (empty for an ID with no block).
type pFunc struct {
	ins  []pInstr
	ops  []pOp
	span []span
}

// span is a block's records, ins[lo:hi].
type span struct{ lo, hi int32 }

// block returns the records of the block with the given ID.
func (pf *pFunc) block(id int) []pInstr {
	s := pf.span[id]
	return pf.ins[s.lo:s.hi]
}

// args returns pin's operands.
func (pf *pFunc) args(pin *pInstr) []pOp {
	return pf.ops[pin.arg : int(pin.arg)+len(pin.in.Args)]
}

// val reads an operand's integer word: operands were pre-classified by
// prepare, so this is the whole residue of a per-step `switch o.Kind` decode.
func val(locals []int64, p *pOp) int64 {
	if p.varIdx >= 0 {
		return locals[p.varIdx]
	}
	return p.i64
}

// fval reads an operand's float view: a local's bits, a float constant's
// bits, or an integer (or null) constant converted.
func fval(locals []int64, p *pOp) float64 {
	if p.varIdx >= 0 {
		return math.Float64frombits(uint64(locals[p.varIdx]))
	}
	return constFloat(p)
}

// constFloat is a constant operand's float view.
func constFloat(p *pOp) float64 {
	if p.isFloat {
		return math.Float64frombits(uint64(p.i64))
	}
	return float64(p.i64)
}

func decodeOperand(fn *ir.Func, o ir.Operand) pOp {
	switch o.Kind {
	case ir.OperVar:
		return pOp{varIdx: int32(o.Var), isFloat: fn.Locals[o.Var].Kind == ir.KindFloat}
	case ir.OperConstInt:
		return pOp{varIdx: -1, i64: o.Int}
	case ir.OperConstFloat:
		return pOp{varIdx: -1, isFloat: true, i64: int64(math.Float64bits(o.Float))}
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
	t := m.tier
	var mt *methodTier // fn's method on a tiered machine; nil off the program
	if t != nil {
		mt = t.stateOf(fn)
	}
	// Who counts fn's checks and sites: the governor or tier-2 speculation
	// (never both), or trap-cost attribution on an untiered machine.
	gov := mt != nil && t.gov != nil
	spec := mt != nil && t.speculates()
	attr := m.attr != nil && t == nil
	// Count first, so both slabs are made once at their final size.
	nIns, nOps := 0, 0
	for _, b := range fn.Blocks {
		nIns += len(b.Instrs)
		for _, in := range b.Instrs {
			nOps += len(in.Args)
		}
	}
	pf := &pFunc{
		ins:  make([]pInstr, 0, nIns),
		ops:  make([]pOp, 0, nOps),
		span: make([]span, fn.MaxBlockID()+1),
	}
	ord := 0 // the next null check's ordinal, in fn.NullChecks order
	for _, b := range fn.Blocks {
		lo := len(pf.ins)
		for _, in := range b.Instrs {
			pin := pInstr{in: in, arg: int32(len(pf.ops)), cost: int32(m.Arch.Cost(in))}
			for _, o := range in.Args {
				pf.ops = append(pf.ops, decodeOperand(fn, o))
			}
			switch {
			case gov && in.TrapSite != 0:
				// Trap sites and demoted checks, by trap-site ordinal.
				pin.chk = t.bindSite(mt, in)
			case spec && in.Op == ir.OpNullCheck:
				// Every generation's checks, by check ordinal.
				pin.chk = mt.checks.at(ord)
			case attr && (in.Op == ir.OpNullCheck || in.ExcSite):
				pin.chk = m.attrCell(in)
			}
			if in.Op == ir.OpNullCheck {
				ord++
			}
			pf.ins = append(pf.ins, pin)
		}
		pf.span[b.ID] = span{int32(lo), int32(len(pf.ins))}
	}
	// Arm the hot countdown. A tiered machine arms only a tier-0 method's
	// body: with promotion disabled it stays 0, and a body outside the
	// program runs compiled at once.
	e := &fnEntry{pf: pf}
	if t != nil {
		if mt != nil && mt.tier == tierInterp {
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
