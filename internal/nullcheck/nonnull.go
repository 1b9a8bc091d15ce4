package nullcheck

import (
	"trapnull/internal/bitset"
	"trapnull/internal/dataflow"
	"trapnull/internal/ir"
)

// nonNullAnalysis is the forward "known non-null" data-flow problem of
// §4.1.2, shared by the phase 1 elimination stage, the Whaley baseline, and
// the guard checker. extraEdge, indexed by Block.ID, optionally injects facts
// at block exits — the phase 1 caller passes the Earliest sets so that
// planned insertions count as checks before they physically exist. The
// problem's sets live in ws, which the solve needs only until it returns.
func nonNullAnalysis(f *ir.Func, ws *workspace, extraEdge []*bitset.Set) *dataflow.Result {
	size := f.NumLocals()
	// The solver never retains the returned set, so one scratch serves
	// every edge evaluation without allocating.
	edge := &ws.edge
	edge.Reset(size)
	// The receiver of an instance method is non-null on entry (the paper's
	// Edge rule for the `this` object).
	boundary := &ws.boundary
	boundary.Reset(size)
	if f.IsInstance && f.NumParams > 0 {
		boundary.Add(0)
	}
	return dataflow.Solve(f, &dataflow.Problem{
		Dir:      dataflow.Forward,
		Meet:     dataflow.Intersect,
		Size:     size,
		Boundary: boundary,
		Scan:     scanNonNull,
		EdgeAdd: func(from, to *ir.Block) *bitset.Set {
			edge.Clear()
			if v := condEdgeNonNull(from, to); v != ir.NoVar {
				edge.Add(int(v))
			}
			if extraEdge != nil {
				if s := extraEdge[from.ID]; s != nil {
					edge.Union(s)
				}
			}
			return edge
		},
	})
}

// scanNonNull computes the block-level gen/kill of non-nullness facts by a
// forward walk: a write to a variable kills its fact; a null check, a
// successful dereference, or an allocation (re)establishes it.
func scanNonNull(b *ir.Block, gen, kill *bitset.Set) {
	for _, in := range b.Instrs {
		// The dereference happens before the destination write, so order
		// matters for instructions like v = v.next.
		if sa, ok := in.SlotAccessInfo(); ok && !in.Speculated {
			gen.Add(int(sa.Base))
		}
		if in.Op == ir.OpNullCheck {
			gen.Add(int(in.NullCheckVar()))
		}
		if v := overwrites(in); v != ir.NoVar {
			gen.Remove(int(v))
			kill.Add(int(v))
		}
		if in.Op == ir.OpNew || in.Op == ir.OpNewArray {
			gen.Add(int(in.Dst))
		}
	}
}

// stepNonNull advances the running non-null set across one instruction,
// mirroring scanNonNull's per-instruction logic.
func stepNonNull(cur *bitset.Set, in *ir.Instr) {
	if sa, ok := in.SlotAccessInfo(); ok && !in.Speculated {
		cur.Add(int(sa.Base))
	}
	if in.Op == ir.OpNullCheck {
		cur.Add(int(in.NullCheckVar()))
	}
	if v := overwrites(in); v != ir.NoVar {
		cur.Remove(int(v))
	}
	if in.Op == ir.OpNew || in.Op == ir.OpNewArray {
		cur.Add(int(in.Dst))
	}
}

// eliminateKnownNonNull removes every null check whose target is proven
// non-null at the check, using a precomputed non-null analysis. Returns the
// number of checks removed.
//
// plain is only consulted when a fate tracker is attached (f.Track != nil):
// it is the insertion-free non-null analysis over the same function, used to
// classify each removal. A check the plain analysis already proves redundant
// is genuinely eliminated; one whose proof needs the phase-1 insertion facts
// only moved up — its fate is "hoisted". The plain running set steps over
// removed checks too, mirroring the original function where they still
// exist. nil plain classifies every removal as eliminated (the Whaley path,
// whose analysis is the plain one by definition).
func eliminateKnownNonNull(f *ir.Func, ws *workspace, res, plain *dataflow.Result) int {
	removed := 0
	cur := &ws.cur
	cur.Reset(f.NumLocals())
	var curPlain *bitset.Set
	if f.Track != nil && plain != nil {
		curPlain = &ws.plain
		curPlain.Reset(f.NumLocals())
	}
	for _, b := range f.Blocks {
		cur.CopyFrom(res.In(b))
		if curPlain != nil {
			curPlain.CopyFrom(plain.In(b))
		}
		kept := b.Instrs[:0]
		for _, in := range b.Instrs {
			if in.Op == ir.OpNullCheck && cur.Has(int(in.NullCheckVar())) {
				removed++
				if t := f.Track; t != nil {
					if curPlain != nil && !curPlain.Has(int(in.NullCheckVar())) {
						t.Hoisted(in, b)
					} else {
						t.Eliminated(in, b)
					}
				}
				if curPlain != nil {
					stepNonNull(curPlain, in)
				}
				continue
			}
			stepNonNull(cur, in)
			if curPlain != nil {
				stepNonNull(curPlain, in)
			}
			kept = append(kept, in)
		}
		b.Instrs = kept
	}
	return removed
}

// Whaley implements the previous best algorithm the paper compares against
// ("Old Null Check"): a single forward data-flow elimination of redundant
// checks, with no motion. It returns the elimination count.
func Whaley(f *ir.Func) Stats {
	ws := getWorkspace()
	res := nonNullAnalysis(f, ws, nil)
	n := eliminateKnownNonNull(f, ws, res, nil)
	res.Release()
	ws.release()
	return Stats{Eliminated: n, ExplicitRemaining: f.CountOp(ir.OpNullCheck)}
}
