package nullcheck

import (
	"trapnull/internal/dataflow"
	"trapnull/internal/ir"
)

// NonNullOut returns, as the Out sets of a non-null analysis, the set of
// variables proven non-null at each block's exit. Scalar replacement uses it
// to decide whether a memory read may be hoisted to a loop preheader without
// crossing its own null check — the interplay the paper illustrates in
// Figure 4: phase 1 hoists the check, which is what makes the load hoistable
// at all.
//
// The sets live in the solver's pooled workspace: they stay valid until the
// caller releases the result, which hands the workspace back for the next
// solve.
func NonNullOut(f *ir.Func) *dataflow.Result {
	ws := getWorkspace()
	res := nonNullAnalysis(f, ws, nil)
	ws.release()
	return res
}
