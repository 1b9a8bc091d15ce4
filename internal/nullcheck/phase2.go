package nullcheck

import (
	"slices"

	"trapnull/internal/arch"
	"trapnull/internal/bitset"
	"trapnull/internal/dataflow"
	"trapnull/internal/ir"
)

// Phase2 runs the architecture-dependent optimization of §4.2 for the given
// machine model: null checks move forward to their latest points, convert to
// implicit (hardware-trap) checks where the very next dereference of the
// checked variable is guaranteed to trap, and surviving explicit checks that
// are substitutable — covered later on every path — are eliminated.
//
// Critical edges are split first; with them gone, "insert at block exit"
// expresses every placement the paper's Latest sets describe, and the
// intersection meet at merges is safe (see DESIGN.md on the union in the
// paper's formula).
func Phase2(f *ir.Func, m *arch.Model) Stats {
	return phase2(f, m, false)
}

// Phase2UnsafeSubst is Phase2 with its two all-paths safety tests
// deliberately weakened to any-path: a check moving through a block exit
// continues when SOME successor expects it (instead of every successor), and
// the final substitutable elimination runs through ConvertToTrapsAnyPath.
// Executions that take an uncovered path silently miss their
// NullPointerException — a planted miscompile that the triage tooling seeds
// (cmd/triage -inject-bug and the triage tests) to prove the bisect/shrink
// machinery finds real optimizer bugs. Never reached by a real
// configuration.
func Phase2UnsafeSubst(f *ir.Func, m *arch.Model) Stats {
	return phase2(f, m, true)
}

func phase2(f *ir.Func, m *arch.Model, unsafeAnyPath bool) Stats {
	ws := getWorkspace()
	defer ws.release()
	f.SplitCriticalEdges()
	size := f.NumLocals()

	scratch, full := &ws.scan, ws.tryFull(size)
	scratch.Reset(size)
	res := dataflow.Solve(f, &dataflow.Problem{
		Dir:  dataflow.Forward,
		Meet: dataflow.Intersect,
		Size: size,
		Scan: func(b *ir.Block, gen, kill *bitset.Set) {
			scratch.Clear()
			scanForwardMotion(b, gen, kill, scratch)
		},
		EdgeSubtract: tryEdgeSubtract(full),
		// Boundary at entry: no checks arrive from outside the function.
	})

	st := Stats{}
	for _, b := range f.Blocks {
		rewriteBlock(b, m, ws, res, &st, unsafeAnyPath, f.Track)
	}
	res.Release()

	st.Eliminated += peepholeImplicit(f, m)
	// §4.2.2, the substitutable elimination: a surviving explicit check
	// dissolves when a later explicit check or guaranteed trap covers it on
	// every path. ConvertToTraps is exactly that backward analysis (it also
	// marks the trapping dereferences that may now carry a deleted check),
	// and doubling as the Phase1Only lowering keeps phase 2 a strict
	// superset of it.
	substMeet := dataflow.Meet(dataflow.Intersect)
	if unsafeAnyPath {
		substMeet = dataflow.Union
	}
	st.Eliminated += convertToTraps(f, m, ws, substMeet)
	st.ExplicitRemaining = f.CountOp(ir.OpNullCheck)
	return st
}

// scanForwardMotion computes the §4.2.1 block summaries.
//
// Gen_fwd: checks located in b that can move down to b's exit — no barrier,
// no dereference of the target, and no overwrite of the target below them.
//
// Kill: checks that cannot move down through b — everything when a barrier
// is present, plus overwritten variables, plus variables whose slot is
// dereferenced (the dereference consumes the moving check). gen and kill
// arrive empty; blockedBelow is caller-provided scratch, cleared on entry.
func scanForwardMotion(b *ir.Block, gen, kill, blockedBelow *bitset.Set) {
	inTry := b.Try != ir.NoTry
	barrierBelow := false
	for i := len(b.Instrs) - 1; i >= 0; i-- {
		in := b.Instrs[i]
		if in.Op == ir.OpNullCheck {
			v := int(in.NullCheckVar())
			if !barrierBelow && !blockedBelow.Has(v) {
				gen.Add(v)
			}
			continue
		}
		if sa, ok := in.SlotAccessInfo(); ok {
			blockedBelow.Add(int(sa.Base))
			kill.Add(int(sa.Base))
		}
		if isBarrier(in, inTry) {
			barrierBelow = true
			kill.Fill()
		}
		if v := overwrites(in); v != ir.NoVar {
			blockedBelow.Add(int(v))
			kill.Add(int(v))
		}
	}
}

// rewriteBlock applies the in-block insertion-point algorithm of §4.2.1:
// original checks dissolve into the Inner set and re-materialize at their
// latest legal points, as implicit exception-site marks when the consuming
// dereference is guaranteed to trap, as explicit check instructions
// otherwise.
//
// unsafeAnyPath weakens the block-exit safety test from "every successor
// expects the moving check" to "some successor expects it" — the planted
// Phase2UnsafeSubst miscompile.
func rewriteBlock(b *ir.Block, m *arch.Model, ws *workspace, res *dataflow.Result, st *Stats, unsafeAnyPath bool, track ir.CheckTracker) {
	size := res.In(b).Len()
	inner := &ws.cur
	inner.Reset(size)
	inner.CopyFrom(res.In(b))
	inTry := b.Try != ir.NoTry

	// carrier (observability only) maps each in-flight bit of inner to the
	// original check instruction that contributed it in this block, so the
	// consuming event can report the right fate. Bits flowing in from
	// predecessors have no carrier here — their originals were fated "sunk"
	// in their home blocks when they crossed the terminator.
	var carrier []*ir.Instr
	if track != nil {
		carrier = slices.Grow(ws.carrier[:0], size)[:size]
		clear(carrier)
		ws.carrier = carrier
	}
	sunk := func(v int) {
		if carrier != nil {
			if c := carrier[v]; c != nil {
				track.Sunk(c, b)
				carrier[v] = nil
			}
		}
	}

	// The block is rebuilt in ws's buffer and copied back, so a block that
	// keeps its length reuses its own storage.
	out := ws.instrs[:0]
	emitExplicit := func(v int) {
		out = append(out, &ir.Instr{
			Op:       ir.OpNullCheck,
			Dst:      ir.NoVar,
			Args:     []ir.Operand{ir.Var(ir.VarID(v))},
			Reason:   ir.ReasonMoved,
			Explicit: true,
		})
		st.Inserted++
	}

	for _, in := range b.Instrs {
		if in.Op == ir.OpNullCheck {
			// The check joins the moving set; its instruction disappears
			// and will re-materialize at the latest point.
			v := int(in.NullCheckVar())
			if carrier != nil {
				if inner.Has(v) {
					// An in-flight check of the same variable already covers
					// this one; nothing new joins the moving set.
					track.Eliminated(in, b)
				} else {
					carrier[v] = in
				}
			}
			inner.Add(v)
			continue
		}
		if sa, ok := in.SlotAccessInfo(); ok && inner.Has(int(sa.Base)) {
			if m.TrapsForAccess(sa) {
				// Implicit null check: zero instructions; the dereference
				// is the exception site (§3.3.2 step 2).
				in.ExcSite = true
				in.ExcVar = sa.Base
				st.Implicit++
				if carrier != nil {
					if c := carrier[sa.Base]; c != nil {
						track.Converted(c, in, b)
						carrier[sa.Base] = nil
					}
				}
			} else {
				// The access cannot be trusted to trap (big offset, read on
				// a write-only-trap OS, dynamic array offset): the check
				// must stay explicit and precede the access.
				emitExplicit(int(sa.Base))
				sunk(int(sa.Base))
			}
			inner.Remove(int(sa.Base))
		}
		if isBarrier(in, inTry) {
			inner.ForEach(func(v int) {
				emitExplicit(v)
				sunk(v)
			})
			inner.Clear()
		} else if v := overwrites(in); v != ir.NoVar && inner.Has(int(v)) {
			emitExplicit(int(v))
			sunk(int(v))
			inner.Remove(int(v))
		}
		if in.IsTerminator() {
			// Checks still moving either continue into every successor
			// (each successor expects them: the check is in its In set) or
			// must be emitted here, before the terminator.
			inner.ForEach(func(v int) {
				continues := len(b.Succs) > 0
				if unsafeAnyPath {
					// Any-path variant: one expecting successor suffices, so
					// the check silently disappears on the others.
					continues = false
					for _, s := range b.Succs {
						if res.In(s).Has(v) {
							continues = true
							break
						}
					}
				} else {
					for _, s := range b.Succs {
						if !res.In(s).Has(v) {
							continues = false
							break
						}
					}
				}
				if !continues {
					emitExplicit(v)
				}
				// Whether re-emitted here or continuing into the successors'
				// In sets, the original check moved past its old position.
				sunk(v)
			})
			inner.Clear()
		}
		out = append(out, in)
	}
	b.Instrs = append(b.Instrs[:0], out...)
	ws.instrs = out
}

// peepholeImplicit converts an explicit check whose target's first following
// event within the block is a guaranteed-trapping dereference into an
// implicit check on that dereference. Phase 2's barrier flushes can leave
// such pairs behind (check emitted at a memory write, dereference right
// after); the paper's §4.2.2 Gen set covers them by treating trapping
// accesses as substitution points, and the marking here keeps the trap
// translatable into a precise NPE.
func peepholeImplicit(f *ir.Func, m *arch.Model) int {
	removed := 0
	for _, b := range f.Blocks {
		inTry := b.Try != ir.NoTry
		kept := b.Instrs[:0]
		for idx, in := range b.Instrs {
			if in.Op != ir.OpNullCheck {
				kept = append(kept, in)
				continue
			}
			v := in.NullCheckVar()
			consumed := false
			var trapCarrier *ir.Instr
		scan:
			for _, later := range b.Instrs[idx+1:] {
				if later.Op == ir.OpNullCheck {
					if later.NullCheckVar() == v {
						// A later identical check covers this one.
						consumed = true
					}
					break scan
				}
				if sa, ok := later.SlotAccessInfo(); ok && sa.Base == v {
					if m.TrapsForAccess(sa) {
						if !later.ExcSite {
							later.ExcSite = true
							later.ExcVar = v
						}
						if later.ExcVar == v {
							consumed = true
							trapCarrier = later
						}
					}
					break scan
				}
				if isBarrier(later, inTry) || overwrites(later) == v {
					break scan
				}
			}
			if consumed {
				removed++
				if t := f.Track; t != nil {
					if trapCarrier != nil {
						t.Converted(in, trapCarrier, b)
					} else {
						t.Eliminated(in, b)
					}
				}
			} else {
				kept = append(kept, in)
			}
		}
		b.Instrs = kept
	}
	return removed
}

// FoldAdjacentTraps implements the pre-paper implicit-check lowering used by
// the baseline configurations (§2.1): a null check is folded into the
// hardware trap only when the immediately following instruction is a
// guaranteed-trapping dereference of the same variable. Returns the number
// of checks folded.
func FoldAdjacentTraps(f *ir.Func, m *arch.Model) int {
	folded := 0
	for _, b := range f.Blocks {
		kept := b.Instrs[:0]
		for idx, in := range b.Instrs {
			if in.Op == ir.OpNullCheck && idx+1 < len(b.Instrs) {
				next := b.Instrs[idx+1]
				if sa, ok := next.SlotAccessInfo(); ok && sa.Base == in.NullCheckVar() && m.TrapsForAccess(sa) {
					if !next.ExcSite {
						next.ExcSite = true
						next.ExcVar = sa.Base
					}
					if next.ExcVar == sa.Base {
						folded++
						if t := f.Track; t != nil {
							t.Converted(in, next, b)
						}
						continue
					}
				}
			}
			kept = append(kept, in)
		}
		b.Instrs = kept
	}
	return folded
}
