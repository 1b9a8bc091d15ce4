// Package opt implements the optimizations the paper iterates with its null
// check elimination (Figure 2): copy propagation and dead code elimination
// as enablers, array bounds check elimination, scalar replacement with
// loop-invariant code motion (including the AIX read-speculation variant of
// §3.3.1), and devirtualization with method inlining (the source of the
// explicit checks phase 2 optimizes, Figure 1).
package opt

import "trapnull/internal/ir"

// CopyProp performs block-local copy and constant propagation: after
// `x = move y`, uses of x read y (or the constant) until either side is
// redefined. Returns the number of operands rewritten.
func CopyProp(f *ir.Func) int {
	ws := getWorkspace()
	defer ws.release()
	rewritten := 0
	// copyOf[v] is the operand v currently mirrors.
	copyOf := ws.copyOf
	for _, b := range f.Blocks {
		clear(copyOf)
		invalidate := func(v ir.VarID) {
			delete(copyOf, v)
			for dst, src := range copyOf {
				if src.IsVar() && src.Var == v {
					delete(copyOf, dst)
				}
			}
		}
		for _, in := range b.Instrs {
			for i, a := range in.Args {
				if !a.IsVar() {
					continue
				}
				rep, ok := copyOf[a.Var]
				if !ok {
					continue
				}
				// Dereference bases and null check targets must remain
				// variables: the analyses and the machine key on them.
				if !rep.IsVar() && baseOperand(in, i) {
					continue
				}
				// An implicit-check mark tracks its base variable; keep the
				// pair consistent across the rewrite.
				if in.ExcSite && baseOperand(in, i) && in.ExcVar == a.Var {
					in.ExcVar = rep.Var
				}
				in.Args[i] = rep
				rewritten++
			}
			if v := in.Dst; in.HasDst() {
				invalidate(v)
				if in.Op == ir.OpMove {
					src := in.Args[0]
					// Reference copies are never propagated: every null
					// check analysis (and the guard checker) keys facts on
					// variable identity, and a block-local rewrite would
					// split a null test from the dereferences it guards.
					if f.Locals[v].Kind != ir.KindRef &&
						src.Kind != ir.OperConstNull && (!src.IsVar() || src.Var != v) {
						copyOf[v] = src
					}
				}
			}
		}
	}
	return rewritten
}

// baseOperand reports whether argument i of in must remain a variable: the
// target of a null check, the base of a dereference, or a virtual receiver.
func baseOperand(in *ir.Instr, i int) bool {
	switch in.Op {
	case ir.OpNullCheck, ir.OpGetField, ir.OpPutField, ir.OpArrayLength,
		ir.OpArrayLoad, ir.OpArrayStore, ir.OpCallVirtual:
		return i == 0
	}
	return false
}
