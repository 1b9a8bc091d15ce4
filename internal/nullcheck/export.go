package nullcheck

import (
	"trapnull/internal/bitset"
	"trapnull/internal/ir"
)

// NonNullOut returns, for every block, the set of variables proven non-null
// at the block's exit. Scalar replacement uses it to decide whether a memory
// read may be hoisted to a loop preheader without crossing its own null
// check — the interplay the paper illustrates in Figure 4: phase 1 hoists
// the check, which is what makes the load hoistable at all.
//
// The sets live in the solver's pooled workspace: they stay valid until the
// caller calls release, which hands the workspace back for the next solve.
func NonNullOut(f *ir.Func) (out map[*ir.Block]*bitset.Set, release func()) {
	res := nonNullAnalysis(f, nil)
	out = make(map[*ir.Block]*bitset.Set, len(f.Blocks))
	for _, b := range f.Blocks {
		out[b] = res.Out(b)
	}
	return out, res.Release
}
