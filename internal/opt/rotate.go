package opt

import (
	"trapnull/internal/cfg"
	"trapnull/internal/ir"
)

// rotateMaxHeader bounds the size of a header we are willing to duplicate.
const rotateMaxHeader = 16

// RotateLoops converts top-tested (while-style) loops into the guarded
// bottom-tested form by peeling a copy of the header in front of the loop.
// Null check anticipability — the heart of phase 1 — requires the loop body
// to execute on every path from the insertion point; a top-tested loop
// denies that, so JITs rotate loops before running PRE-style optimizations
// and this pipeline does the same. Returns the number of loops rotated.
//
// The transformation clones the header block G = copy(H) and retargets the
// loop entry edge to G; each dynamic evaluation of the test still executes
// exactly once (at G on entry, at H afterwards), so any header content is
// safe to duplicate.
func RotateLoops(f *ir.Func) int {
	f.RecomputeEdges()
	doms := cfg.ComputeDominators(f)
	defer doms.Release()
	loops := cfg.FindLoops(f, doms)
	rotated := 0
	for _, l := range loops {
		if rotateOne(f, l) {
			rotated++
		}
	}
	if rotated > 0 {
		f.RecomputeEdges()
	}
	return rotated
}

func rotateOne(f *ir.Func, l *cfg.Loop) bool {
	h := l.Header
	t := h.Terminator()
	if t == nil || t.Op != ir.OpIf || len(h.Instrs) > rotateMaxHeader {
		return false
	}
	// Only rotate genuine while-headers: a pure test computation. A header
	// containing memory accesses, checks or calls is a do-while body —
	// duplicating it would be loop peeling, a different optimization that
	// would blur the experiment (the paper's compiler does not peel).
	for _, in := range h.Instrs {
		if in.IsTerminator() {
			continue
		}
		if _, isAccess := in.SlotAccessInfo(); isAccess ||
			in.Op == ir.OpNullCheck || in.ReadsMemory() || in.WritesMemory() ||
			in.CanThrowOther() {
			return false
		}
	}
	// The header must be the loop's exit test: one successor in the loop,
	// one outside.
	inLoop, outLoop := 0, 0
	for _, s := range h.Succs {
		if l.Contains(s) {
			inLoop++
		} else {
			outLoop++
		}
	}
	if inLoop != 1 || outLoop != 1 {
		return false
	}
	// Don't rotate across try-region boundaries; the guard copy would need
	// the header's region and entry edges may come from outside it.
	for _, p := range h.Preds {
		if !l.Contains(p) && p.Try != h.Try {
			return false
		}
	}

	// Clone the header as the guard block.
	g := f.NewBlock("rot_" + h.Name)
	g.Try = h.Try
	for _, in := range h.Instrs {
		g.Instrs = append(g.Instrs, in.Clone())
	}

	// Retarget every out-of-loop entry edge from H to G.
	for _, p := range h.Preds {
		if l.Contains(p) {
			continue
		}
		pt := p.Terminator()
		for i, tgt := range pt.Targets {
			if tgt == h {
				pt.Targets[i] = g
			}
		}
	}
	if h == f.Entry {
		f.Entry = g
	}
	return true
}
