// Package nullcheck implements the paper's two-phase null pointer check
// optimization, the forward-analysis baseline it compares against (Whaley's
// algorithm), and a guard checker that verifies the safety invariant every
// legal configuration must preserve.
//
// Null checks are identified by their target local variable, so every
// data-flow set in this package is a bit vector over variable IDs, exactly as
// in the paper (§4).
package nullcheck

import (
	"sync"

	"trapnull/internal/bitset"
	"trapnull/internal/cfg"
	"trapnull/internal/ir"
)

// Stats reports what an optimization pass did to one function.
type Stats struct {
	// Eliminated counts null check instructions removed because the target
	// was proven non-null (phase 1 / Whaley) or substitutable (phase 2).
	Eliminated int
	// Inserted counts re-materialized checks (motion insertion points).
	Inserted int
	// Implicit counts checks converted to hardware-trap exception sites.
	Implicit int
	// ExplicitRemaining counts checks left as real instructions.
	ExplicitRemaining int
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Eliminated += other.Eliminated
	s.Inserted += other.Inserted
	s.Implicit += other.Implicit
	s.ExplicitRemaining += other.ExplicitRemaining
}

// isBarrier reports whether the instruction is a side-effect barrier for
// null check motion: it can throw an exception other than NPE, write to
// heap memory, or — inside a try region — write any local variable visible
// to the handler. This is the common component of every Kill set in §4.
func isBarrier(in *ir.Instr, inTry bool) bool {
	if in.Op == ir.OpNullCheck {
		// NPE-for-NPE reordering is explicitly permitted by the paper.
		return false
	}
	if in.CanThrowOther() || in.WritesMemory() {
		return true
	}
	if inTry && in.HasDst() {
		return true
	}
	return false
}

// overwrites returns the variable the instruction overwrites, or NoVar.
func overwrites(in *ir.Instr) ir.VarID {
	if in.HasDst() {
		return in.Dst
	}
	return ir.NoVar
}

// workspace is the scratch memory of one pass: the running sets of its
// rewrite walks, the sets its data-flow problems hand the solver, phase 1's
// Earliest table and phase 2's instruction buffer. Workspaces live in a
// package-level pool, as the solver's do; a pass takes one on entry and
// puts it back before it returns, so a pass allocates no scratch once a
// workspace has served a function as large.
type workspace struct {
	cur, plain bitset.Set // running sets of a walk over a block
	scan       bitset.Set // a Scan function's per-block scratch
	edge       bitset.Set // the non-null EdgeAdd value
	boundary   bitset.Set // the non-null entry value
	full       bitset.Set // the Edge_try value: every variable
	refs       bitset.Set // refVars
	// earliest backs phase 1's Earliest sets, earliestOf indexes them by
	// Block.ID.
	earliest   bitset.Slab
	earliestOf []*bitset.Set
	instrs     []*ir.Instr // rewriteBlock's output
	carrier    []*ir.Instr // rewriteBlock's fate carriers, by variable
	num        cfg.Numbering
}

var workspaces = sync.Pool{New: func() any { return new(workspace) }}

func getWorkspace() *workspace { return workspaces.Get().(*workspace) }

func (ws *workspace) release() { workspaces.Put(ws) }

// tryFull returns the full set of the given size that the motion analyses
// subtract on an edge crossing a try-region boundary (the paper's Edge_try).
func (ws *workspace) tryFull(size int) *bitset.Set {
	ws.full.Reset(size)
	ws.full.Fill()
	return &ws.full
}

// tryEdgeSubtract returns the Edge_try function the motion analyses share:
// full on an edge crossing a try-region boundary, nil otherwise.
func tryEdgeSubtract(full *bitset.Set) func(from, to *ir.Block) *bitset.Set {
	return func(from, to *ir.Block) *bitset.Set {
		if from.Try != to.Try {
			return full
		}
		return nil
	}
}

// condEdgeNonNull returns the variable proven non-null on the edge from->to
// by from's terminator, or NoVar. This captures the paper's Edge rules:
// `ifnull`/`ifnonnull` (a comparison of a reference against null) and
// `instanceof-if<cond>` (a branch on an instanceof result — instanceof of
// null is false, so the instance edge proves non-nullness).
func condEdgeNonNull(from, to *ir.Block) ir.VarID {
	t := from.Terminator()
	if t == nil || t.Op != ir.OpIf {
		return ir.NoVar
	}

	// Null-literal comparison form. (v stays the zero Operand, whose Kind
	// is OperInvalid, when neither side matches; nullForm records the
	// match.)
	var v ir.Operand
	nullForm := false
	switch {
	case t.Args[0].IsVar() && t.Args[1].Kind == ir.OperConstNull:
		v = t.Args[0]
		nullForm = true
	case t.Args[1].IsVar() && t.Args[0].Kind == ir.OperConstNull:
		v = t.Args[1]
		nullForm = true
	}
	if nullForm {
		switch t.Cond {
		case ir.CondEQ:
			// v == null: the else edge proves non-null.
			if t.Targets[1] == to && t.Targets[0] != to {
				return v.Var
			}
		case ir.CondNE:
			// v != null: the then edge proves non-null.
			if t.Targets[0] == to && t.Targets[1] != to {
				return v.Var
			}
		}
		return ir.NoVar
	}

	// instanceof-if form: `x = instanceof v, C; if x != 0 ...` with x's
	// definition in the same block and v stable since it.
	var tested ir.VarID = ir.NoVar
	var wantTrueEdge bool
	switch {
	case t.Args[0].IsVar() && t.Args[1].Kind == ir.OperConstInt && t.Args[1].Int == 0:
		tested = t.Args[0].Var
	case t.Args[1].IsVar() && t.Args[0].Kind == ir.OperConstInt && t.Args[0].Int == 0:
		tested = t.Args[1].Var
	}
	if tested == ir.NoVar {
		return ir.NoVar
	}
	switch t.Cond {
	case ir.CondNE:
		wantTrueEdge = true // x != 0: the then edge is the instance edge
	case ir.CondEQ:
		wantTrueEdge = false // x == 0: the else edge is the instance edge
	default:
		return ir.NoVar
	}
	if wantTrueEdge {
		if t.Targets[0] != to || t.Targets[1] == to {
			return ir.NoVar
		}
	} else {
		if t.Targets[1] != to || t.Targets[0] == to {
			return ir.NoVar
		}
	}
	// Find the last definition of the tested variable in the block; it must
	// be an instanceof whose operand is not redefined afterwards.
	var ref ir.VarID = ir.NoVar
	for i := len(from.Instrs) - 2; i >= 0; i-- {
		in := from.Instrs[i]
		if in.HasDst() && in.Dst == tested {
			if in.Op == ir.OpInstanceOf && in.Args[0].IsVar() {
				ref = in.Args[0].Var
			}
			break
		}
		if ref == ir.NoVar && in.HasDst() {
			continue
		}
	}
	if ref == ir.NoVar {
		return ir.NoVar
	}
	// The reference must not be redefined between the instanceof and the
	// branch.
	seenDef := false
	for i := len(from.Instrs) - 2; i >= 0; i-- {
		in := from.Instrs[i]
		if in.HasDst() && in.Dst == tested && in.Op == ir.OpInstanceOf {
			seenDef = true
			break
		}
		if in.HasDst() && in.Dst == ref {
			return ir.NoVar
		}
	}
	if !seenDef {
		return ir.NoVar
	}
	return ref
}

// refVars returns the set of locals with reference kind; checks can only
// target these, and analyses restrict their universes accordingly. The set
// lives in ws.
func (ws *workspace) refVars(f *ir.Func) *bitset.Set {
	s := &ws.refs
	s.Reset(f.NumLocals())
	for i, l := range f.Locals {
		if l.Kind == ir.KindRef {
			s.Add(i)
		}
	}
	return s
}
