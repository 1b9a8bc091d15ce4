package nullcheck

import (
	"trapnull/internal/arch"
	"trapnull/internal/bitset"
	"trapnull/internal/dataflow"
	"trapnull/internal/ir"
)

// ConvertToTraps lowers explicit null checks onto the hardware trap without
// moving them: a check is deleted when, on every path from it, an explicit
// check or a guaranteed-trapping dereference of the same variable occurs
// before any barrier, overwrite, or unguarded access — the substitutable
// elimination of §4.2.2 run with trapping accesses as substitution points
// but with no forward motion. Trap-capable dereferences that may now carry
// the check are marked as exception sites.
//
// The Phase1Only configuration uses this as its final lowering: the paper's
// phase-1-only measurement still "utilizes hardware traps" (Table 1 legend)
// even though the architecture-dependent motion is disabled.
func ConvertToTraps(f *ir.Func, m *arch.Model) int {
	ws := getWorkspace()
	defer ws.release()
	return convertToTraps(f, m, ws, dataflow.Intersect)
}

// ConvertToTrapsAnyPath is ConvertToTraps with its all-paths safety meet
// deliberately weakened to any-path (union): a check is deleted when SOME
// later path covers it, so executions taking an uncovered path silently miss
// their NullPointerException. This is a planted miscompile — the fault the
// triage tooling's tests and cmd/triage -inject-bug seed to prove the
// bisect/shrink machinery finds real optimizer bugs. It is never reached by
// a real configuration.
func ConvertToTrapsAnyPath(f *ir.Func, m *arch.Model) int {
	ws := getWorkspace()
	defer ws.release()
	return convertToTraps(f, m, ws, dataflow.Union)
}

func convertToTraps(f *ir.Func, m *arch.Model, ws *workspace, meet dataflow.Meet) int {
	size := f.NumLocals()
	scratch, full := &ws.scan, ws.tryFull(size)
	scratch.Reset(size)
	res := dataflow.Solve(f, &dataflow.Problem{
		Dir:  dataflow.Backward,
		Meet: meet,
		Size: size,
		Scan: func(b *ir.Block, gen, kill *bitset.Set) {
			scratch.Clear()
			scanConvert(b, m, gen, kill, scratch)
		},
		EdgeSubtract: tryEdgeSubtract(full),
	})

	removed := 0
	cur := &ws.cur
	cur.Reset(size)
	for _, b := range f.Blocks {
		inTry := b.Try != ir.NoTry
		cur.CopyFrom(res.Out(b))
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			in := b.Instrs[i]
			if in.Op == ir.OpNullCheck && cur.Has(int(in.NullCheckVar())) {
				b.RemoveInstr(i)
				removed++
				if t := f.Track; t != nil {
					t.Substituted(in, b)
				}
				continue
			}
			if isBarrier(in, inTry) {
				cur.Clear()
			}
			if v := overwrites(in); v != ir.NoVar {
				cur.Remove(int(v))
			}
			if sa, ok := in.SlotAccessInfo(); ok {
				if m.TrapsForAccess(sa) && !in.Speculated {
					// This dereference can carry a deleted check above it;
					// mark it so the machine translates the trap precisely.
					if !in.ExcSite {
						in.ExcSite = true
						in.ExcVar = sa.Base
					}
					if in.ExcVar == sa.Base {
						cur.Add(int(sa.Base))
					} else {
						cur.Remove(int(sa.Base))
					}
				} else {
					cur.Remove(int(sa.Base))
				}
			}
			if in.Op == ir.OpNullCheck {
				cur.Add(int(in.NullCheckVar()))
			}
		}
	}
	res.Release()
	return removed
}

// scanConvert computes block summaries for ConvertToTraps: Gen holds
// variables whose first in-block event, with no earlier barrier, is an
// explicit check or a guaranteed-trapping dereference; Kill matches the
// motion Kill of §4.2.1. gen and kill arrive empty; decided is
// caller-provided scratch, cleared on entry.
func scanConvert(b *ir.Block, m *arch.Model, gen, kill, decided *bitset.Set) {
	inTry := b.Try != ir.NoTry
	barrierAbove := false
	for _, in := range b.Instrs {
		if in.Op == ir.OpNullCheck {
			v := int(in.NullCheckVar())
			if !barrierAbove && !decided.Has(v) {
				gen.Add(v)
			}
			decided.Add(v)
			kill.Add(v)
			continue
		}
		if sa, ok := in.SlotAccessInfo(); ok {
			v := int(sa.Base)
			if m.TrapsForAccess(sa) && !in.Speculated && (!in.ExcSite || in.ExcVar == sa.Base) {
				if !barrierAbove && !decided.Has(v) {
					gen.Add(v)
				}
			}
			decided.Add(v)
			kill.Add(v)
		}
		if isBarrier(in, inTry) {
			barrierAbove = true
			kill.Fill()
		}
		if v := overwrites(in); v != ir.NoVar {
			decided.Add(int(v))
			kill.Add(int(v))
		}
	}
}
