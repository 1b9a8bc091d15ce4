package nullcheck

import (
	"slices"

	"trapnull/internal/bitset"
	"trapnull/internal/dataflow"
	"trapnull/internal/ir"
)

// Phase1 runs the architecture-independent optimization of §4.1: it computes
// the earliest points null checks can reach when moved backward (§4.1.1),
// eliminates checks proven non-null by the forward analysis assuming those
// insertions (§4.1.2), and materializes the surviving insertion points at
// block exits. The transformation is insert-then-prune: an original check is
// only deleted when provably covered on all incoming paths, so safety never
// depends on the insertion placement.
//
// The pass is designed to be iterated with bounds-check elimination and
// scalar replacement (Figure 2); each iteration is one Phase1 call.
func Phase1(f *ir.Func) Stats {
	ws := getWorkspace()
	defer ws.release()
	size := f.NumLocals()
	// Critical edges carry the natural insertion points of guarded loops
	// (the guard→body edge is the loop preheader); split them so "insert at
	// block exit" can express those placements. Splitting leaves the edges
	// recomputed.
	f.SplitCriticalEdges()

	// --- §4.1.1: backward movable-area analysis -------------------------
	scratch, full := &ws.scan, ws.tryFull(size)
	scratch.Reset(size)
	bwd := dataflow.Solve(f, &dataflow.Problem{
		Dir:  dataflow.Backward,
		Meet: dataflow.Intersect,
		Size: size,
		Scan: func(b *ir.Block, gen, kill *bitset.Set) {
			scratch.Clear()
			scanBackwardMotion(b, gen, kill, scratch)
		},
		EdgeSubtract: tryEdgeSubtract(full),
		// Boundary at exits: nothing is anticipated after a return.
	})

	// --- Earliest(n): checks anticipated at the exit of n that no
	// predecessor anticipates at its own exit ----------------------------
	ids := f.MaxBlockID() + 1
	earliest := slices.Grow(ws.earliestOf[:0], ids)[:ids]
	clear(earliest)
	ws.earliestOf = earliest
	slab := ws.earliest.Carve(len(f.Blocks), size)
	rv := ws.refVars(f)
	for i, b := range f.Blocks {
		e := slab[i]
		e.CopyFrom(bwd.Out(b))
		for _, p := range b.Preds {
			// e ∩ ¬Out(p) is plain set difference.
			e.Subtract(bwd.Out(p))
		}
		// Only variables that actually have checks somewhere benefit from
		// insertion; Out_bwd already guarantees that, but restrict to ref
		// variables for hygiene.
		e.Intersect(rv)
		earliest[b.ID] = e
	}
	bwd.Release()

	// --- §4.1.2: forward non-null analysis assuming the insertions ------
	fwd := nonNullAnalysis(f, ws, earliest)

	// Fate classification (observability only): the insertion-free analysis
	// distinguishes "was already redundant" from "moved up to an insertion
	// point". One extra solve, paid only when a tracker is attached.
	var plain *dataflow.Result
	if f.Track != nil {
		plain = nonNullAnalysis(f, ws, nil)
	}

	st := Stats{}
	st.Eliminated = eliminateKnownNonNull(f, ws, fwd, plain)
	if plain != nil {
		plain.Release()
	}

	// --- Prune and materialize insertion points -------------------------
	// Earliest(n) = Earliest(n) − Out_fwd(n): an insertion is useless where
	// the variable is already non-null at the block exit.
	for _, b := range f.Blocks {
		e := earliest[b.ID]
		e.Subtract(fwd.Out(b))
		e.ForEach(func(v int) {
			b.InsertBeforeTerminator(&ir.Instr{
				Op:       ir.OpNullCheck,
				Dst:      ir.NoVar,
				Args:     []ir.Operand{ir.Var(ir.VarID(v))},
				Reason:   ir.ReasonMoved,
				Explicit: true,
			})
			st.Inserted++
		})
	}
	fwd.Release()
	st.ExplicitRemaining = f.CountOp(ir.OpNullCheck)
	return st
}

// scanBackwardMotion computes the §4.1.1 block summaries.
//
// Gen_bwd: checks located in b that can move up to b's entry — no barrier
// and no overwrite of the target appears above them in the block.
//
// Kill_bwd: checks that cannot move up through b — the whole universe when
// the block contains a side-effect barrier, plus every overwritten variable.
// gen and kill arrive empty; blockedAbove is caller-provided scratch, cleared
// on entry.
func scanBackwardMotion(b *ir.Block, gen, kill, blockedAbove *bitset.Set) {
	inTry := b.Try != ir.NoTry
	barrierAbove := false
	for _, in := range b.Instrs {
		if in.Op == ir.OpNullCheck {
			v := int(in.NullCheckVar())
			if !barrierAbove && !blockedAbove.Has(v) {
				gen.Add(v)
			}
			continue
		}
		if isBarrier(in, inTry) {
			barrierAbove = true
			kill.Fill()
		}
		if v := overwrites(in); v != ir.NoVar {
			blockedAbove.Add(int(v))
			kill.Add(int(v))
		}
	}
}
