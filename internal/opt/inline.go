package opt

import (
	"trapnull/internal/arch"
	"trapnull/internal/ir"
)

// InlineStats reports what the inliner did.
type InlineStats struct {
	// Devirtualized counts virtual call sites converted to inlined bodies;
	// each leaves behind an explicit null check with ReasonInlined — the
	// checks phase 2 exists to optimize (Figure 1).
	Devirtualized int
	// Inlined counts static call sites inlined.
	Inlined int
	// Intrinsified counts math calls lowered to single instructions (only
	// on models with MathIntrinsics, the §5.4 platform difference).
	Intrinsified int
}

// Add accumulates o into s.
func (s *InlineStats) Add(o InlineStats) {
	s.Devirtualized += o.Devirtualized
	s.Inlined += o.Inlined
	s.Intrinsified += o.Intrinsified
}

// InlineBudget is the default maximum callee size (in instructions) the
// inliner accepts; the paper targets the small accessor methods of mtrt.
const InlineBudget = 24

// Inline devirtualizes and inlines small method bodies into f and lowers
// math intrinsics according to the model, using the default budget.
func Inline(f *ir.Func, m *arch.Model) InlineStats {
	return InlineWithBudget(f, m, InlineBudget)
}

// InlineWithBudget is Inline with an explicit callee-size budget. Callee
// bodies are taken as-is (depth 1; nested calls inside an inlined body stay
// calls, then become further sites). Callees with try regions or recursion
// back to f are skipped.
func InlineWithBudget(f *ir.Func, m *arch.Model, budget int) InlineStats {
	st := InlineStats{}
	// Collect sites first: inlining splits blocks and appends new ones.
	type site struct {
		b   *ir.Block
		idx int
	}
	// Hard cap on expansions per function: mutual-recursion cycles that the
	// per-callee guards cannot see terminate here instead of running away.
	const maxInlineSites = 64
	for st.Devirtualized+st.Inlined < maxInlineSites {
		var found *site
		var callee *ir.Method
		for _, b := range f.Blocks {
			for i, in := range b.Instrs {
				if in.Op != ir.OpCallStatic && in.Op != ir.OpCallVirtual {
					continue
				}
				cal := in.Callee
				if cal == nil {
					continue
				}
				if cal.Intrinsic != ir.MathNone && m.MathIntrinsics {
					// Lower to a single instruction in place. On models
					// without the instruction the call remains and acts as
					// an optimization barrier (§5.4).
					in.Op = ir.OpMath
					in.Fn = cal.Intrinsic
					in.Callee = nil
					st.Intrinsified++
					continue
				}
				if cal.Fn == nil || !inlinable(cal, f, budget) {
					continue
				}
				found = &site{b, i}
				callee = cal
				break
			}
			if found != nil {
				break
			}
		}
		if found == nil {
			break
		}
		inlineAt(f, found.b, found.idx, callee)
		if callee.Virtual {
			st.Devirtualized++
		} else {
			st.Inlined++
		}
	}
	f.RecomputeEdges()
	return st
}

// inlinable applies the inlining policy.
func inlinable(m *ir.Method, caller *ir.Func, budget int) bool {
	if m.Fn == caller || len(m.Fn.Regions) > 0 {
		return false
	}
	if m.Fn.NumInstrs() > budget {
		return false
	}
	// Reject callees that call themselves (their body would re-expand at
	// every round) or call back into the caller.
	for _, b := range m.Fn.Blocks {
		for _, in := range b.Instrs {
			if (in.Op == ir.OpCallStatic || in.Op == ir.OpCallVirtual) &&
				in.Callee != nil && (in.Callee.Fn == caller || in.Callee.Fn == m.Fn) {
				return false
			}
		}
	}
	return true
}

// inlineAt splices callee's body in place of the call at b.Instrs[idx].
//
// For a virtual call the dispatch dereference of the receiver disappears, so
// an explicit null check with ReasonInlined takes its place — the paper's
// Figure 1 requirement. The builder already emitted a check before the call;
// that one remains and is retagged rather than duplicated when it
// immediately precedes the site.
func inlineAt(f *ir.Func, b *ir.Block, idx int, m *ir.Method) {
	call := b.Instrs[idx]
	callee := m.Fn

	// Parameters the callee never writes alias the argument variable
	// directly instead of being copied into a fresh local. This keeps the
	// null check linkage intact: the dereferences of an inlined accessor
	// body target the very variable the devirtualization guard checks.
	written := make([]bool, callee.NumParams)
	for _, cb := range callee.Blocks {
		for _, in := range cb.Instrs {
			if in.HasDst() && int(in.Dst) < callee.NumParams {
				written[in.Dst] = true
			}
		}
	}
	mapping := make([]ir.VarID, len(callee.Locals))
	var argMoves []*ir.Instr
	for li, l := range callee.Locals {
		if li < callee.NumParams {
			a := call.Args[li]
			if a.IsVar() && !written[li] {
				mapping[li] = a.Var
				continue
			}
			nv := f.NewLocal("in_"+l.Name, l.Kind)
			mapping[li] = nv
			argMoves = append(argMoves, &ir.Instr{Op: ir.OpMove, Dst: nv, Args: []ir.Operand{a}})
			continue
		}
		mapping[li] = f.NewLocal("in_"+l.Name, l.Kind)
	}
	remap := func(v ir.VarID) ir.VarID { return mapping[v] }

	// Continuation block: everything after the call.
	cont := f.NewBlock(b.Name + "_cont")
	cont.Try = b.Try
	cont.Instrs = append(cont.Instrs, b.Instrs[idx+1:]...)

	// Head: everything before the call plus the argument moves.
	head := b.Instrs[:idx]
	if call.Op == ir.OpCallVirtual {
		// Retag the guard the builder placed, or add one if the call was
		// constructed without it.
		if idx > 0 && head[idx-1].Op == ir.OpNullCheck &&
			head[idx-1].Args[0].IsVar() && call.Args[0].IsVar() &&
			head[idx-1].Args[0].Var == call.Args[0].Var {
			head[idx-1].Reason = ir.ReasonInlined
		} else {
			head = append(head, &ir.Instr{
				Op: ir.OpNullCheck, Dst: ir.NoVar,
				Args:     []ir.Operand{call.Args[0]},
				Reason:   ir.ReasonInlined,
				Explicit: true,
			})
		}
	}
	head = append(head, argMoves...)

	// Clone callee blocks.
	bmap := make(map[*ir.Block]*ir.Block, len(callee.Blocks))
	for _, cb := range callee.Blocks {
		nb := f.NewBlock(callee.Name + "_" + cb.Name)
		nb.Try = b.Try
		bmap[cb] = nb
	}
	for _, cb := range callee.Blocks {
		nb := bmap[cb]
		for _, in := range cb.Instrs {
			ci := in.Clone()
			if ci.HasDst() {
				ci.Dst = remap(ci.Dst)
			}
			for i, a := range ci.Args {
				if a.IsVar() {
					ci.Args[i].Var = remap(a.Var)
				}
			}
			if ci.ExcSite {
				// Callee bodies may already carry implicit-check marks
				// (methods are optimized in program order).
				ci.ExcVar = remap(ci.ExcVar)
			}
			for i, tgt := range ci.Targets {
				ci.Targets[i] = bmap[tgt]
			}
			if ci.Op == ir.OpReturn {
				if call.HasDst() && len(ci.Args) == 1 {
					nb.Instrs = append(nb.Instrs, &ir.Instr{
						Op: ir.OpMove, Dst: call.Dst, Args: []ir.Operand{ci.Args[0]},
					})
				}
				nb.Instrs = append(nb.Instrs, &ir.Instr{
					Op: ir.OpJump, Dst: ir.NoVar, Targets: []*ir.Block{cont},
				})
				continue
			}
			nb.Instrs = append(nb.Instrs, ci)
		}
	}

	b.Instrs = append(head, &ir.Instr{
		Op: ir.OpJump, Dst: ir.NoVar, Targets: []*ir.Block{bmap[callee.Entry]},
	})
}
