package opt

import (
	"trapnull/internal/bitset"
	"trapnull/internal/dataflow"
	"trapnull/internal/ir"
)

// DCE removes unreachable blocks and pure instructions whose results are
// dead. An instruction is removable only when it has a destination, the
// destination is dead after it, and executing it has no observable effect:
// no memory write, no possible exception, no implicit-check exception-site
// mark (removing a marked dereference would silently delete a null check).
// Returns the number of instructions removed.
func DCE(f *ir.Func) int {
	ws := getWorkspace()
	defer ws.release()
	removed := removeUnreachable(f, ws)
	live := liveness(f)
	cur := &ws.cur
	cur.Reset(f.NumLocals())
	for _, b := range f.Blocks {
		if b.Try != ir.NoTry {
			// A handler may observe any local at any faulting point.
			continue
		}
		cur.CopyFrom(live.Out(b))
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			in := b.Instrs[i]
			if removableWhenDead(in) && !cur.Has(int(in.Dst)) {
				b.RemoveInstr(i)
				removed++
				continue
			}
			// Backward liveness transfer.
			if in.HasDst() {
				cur.Remove(int(in.Dst))
			}
			for _, a := range in.Args {
				if a.IsVar() {
					cur.Add(int(a.Var))
				}
			}
		}
	}
	live.Release()
	return removed
}

// removableWhenDead reports whether the instruction may vanish if its result
// is unused.
func removableWhenDead(in *ir.Instr) bool {
	if !in.HasDst() || in.ExcSite || in.Speculated {
		return false
	}
	switch in.Op {
	case ir.OpMove, ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpAnd, ir.OpOr, ir.OpXor,
		ir.OpShl, ir.OpShr, ir.OpNeg, ir.OpNot,
		ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFNeg,
		ir.OpIntToFloat, ir.OpFloatToInt, ir.OpCmp, ir.OpMath, ir.OpInstanceOf:
		return true
	case ir.OpGetField, ir.OpArrayLength, ir.OpArrayLoad:
		// A guarded read has no observable effect; its null check (explicit
		// or exception-site mark) stays behind independently.
		return true
	}
	return false
}

// removeUnreachable drops blocks with no path from entry.
func removeUnreachable(f *ir.Func, ws *workspace) int {
	// Handler blocks are reachable through exceptions even without CFG
	// edges; keep each region handler and everything it reaches.
	reach := &ws.num
	reach.Renumber(f, true)
	kept := f.Blocks[:0]
	removed := 0
	for _, b := range f.Blocks {
		if reach.Reaches(b) {
			kept = append(kept, b)
		} else {
			removed += len(b.Instrs)
			if t := f.Track; t != nil {
				// Null checks disappearing with an unreachable block are a
				// legitimate terminal fate; report them so the ledger's
				// conservation invariant holds through DCE and SimplifyCFG.
				for _, in := range b.Instrs {
					if in.Op == ir.OpNullCheck {
						t.Dead(in, b)
					}
				}
			}
		}
	}
	f.Blocks = kept
	f.RecomputeEdges()
	return removed
}

// liveness solves backward may-liveness of locals.
func liveness(f *ir.Func) *dataflow.Result {
	size := f.NumLocals()
	scan := func(b *ir.Block, use, def *bitset.Set) {
		if b.Try != ir.NoTry {
			// A handler can observe any local after any faulting point, and
			// handlers are not connected by CFG edges; treat everything as
			// used inside try regions so liveness flows out to their
			// predecessors.
			use.Fill()
			return
		}
		for _, in := range b.Instrs {
			for _, a := range in.Args {
				if a.IsVar() && !def.Has(int(a.Var)) {
					use.Add(int(a.Var))
				}
			}
			if in.HasDst() && !use.Has(int(in.Dst)) {
				def.Add(int(in.Dst))
			}
		}
	}
	return dataflow.Solve(f, &dataflow.Problem{
		Dir:  dataflow.Backward,
		Meet: dataflow.Union,
		Size: size,
		Scan: scan,
	})
}
