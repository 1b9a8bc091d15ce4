package opt

import (
	"trapnull/internal/bitset"
	"trapnull/internal/dataflow"
	"trapnull/internal/ir"
)

// bcKey identifies a bounds check by value: the index operand and the
// length-holding variable. Two checks with equal keys and no intervening
// redefinition check the same condition.
type bcKey struct {
	idxIsVar bool
	idxVar   ir.VarID
	idxConst int64
	lenVar   ir.VarID
}

func boundKey(in *ir.Instr) (bcKey, bool) {
	if in.Op != ir.OpBoundCheck || !in.Args[1].IsVar() {
		return bcKey{}, false
	}
	k := bcKey{lenVar: in.Args[1].Var}
	switch in.Args[0].Kind {
	case ir.OperVar:
		k.idxIsVar = true
		k.idxVar = in.Args[0].Var
	case ir.OperConstInt:
		k.idxConst = in.Args[0].Int
	default:
		return bcKey{}, false
	}
	return k, true
}

// BoundCheckElim removes array bounds checks that are available: an
// identical check (same index operand, same length variable) already
// executed on every path with neither operand redefined since. Combined with
// scalar replacement CSE-ing `arraylength` loads into shared length
// variables, this is what collapses the repeated checks of multidimensional
// array walks (the Assignment / Neural Net / LU workloads of §5.1).
// Returns the number of checks removed.
func BoundCheckElim(f *ir.Func) int {
	ws := getWorkspace()
	defer ws.release()
	// Build the universe of keys.
	index := ws.bcIndex
	clear(index)
	keys := ws.bcKeys[:0]
	repeated := false
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if k, ok := boundKey(in); ok {
				if _, seen := index[k]; seen {
					repeated = true
				} else {
					index[k] = len(keys)
					keys = append(keys, k)
				}
			}
		}
	}
	ws.bcKeys = keys
	// A check goes only when an identical one ran earlier on every path, so
	// a key that occurs once is never available at its own site: with no
	// key repeated there is nothing to solve for.
	if !repeated {
		return 0
	}
	size := len(keys)

	killsOf := func(v ir.VarID, kill *bitset.Set) {
		for i, k := range keys {
			if (k.idxIsVar && k.idxVar == v) || k.lenVar == v {
				kill.Add(i)
			}
		}
	}
	kid := &ws.kill
	kid.Reset(size)
	scan := func(b *ir.Block, gen, kill *bitset.Set) {
		for _, in := range b.Instrs {
			if k, ok := boundKey(in); ok {
				gen.Add(index[k])
			}
			if in.HasDst() {
				kid.Clear()
				killsOf(in.Dst, kid)
				gen.Subtract(kid)
				kill.Union(kid)
			}
		}
	}

	res := dataflow.Solve(f, &dataflow.Problem{
		Dir:  dataflow.Forward,
		Meet: dataflow.Intersect,
		Size: size,
		Scan: scan,
	})

	removed := 0
	cur := &ws.cur
	cur.Reset(size)
	for _, b := range f.Blocks {
		cur.CopyFrom(res.In(b))
		kept := b.Instrs[:0]
		for _, in := range b.Instrs {
			if k, ok := boundKey(in); ok {
				ki := index[k]
				if cur.Has(ki) {
					removed++
					continue
				}
				cur.Add(ki)
			}
			if in.HasDst() {
				kid.Clear()
				killsOf(in.Dst, kid)
				cur.Subtract(kid)
			}
			kept = append(kept, in)
		}
		b.Instrs = kept
	}
	res.Release()
	return removed
}
