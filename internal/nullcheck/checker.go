package nullcheck

import (
	"fmt"

	"trapnull/internal/arch"
	"trapnull/internal/ir"
)

// CheckGuards verifies the safety invariant of every legal configuration: at
// each dereference, the base variable is guarded — proven non-null by a
// dominating explicit check, allocation, non-null branch edge or receiver
// fact — or the instruction itself is a marked exception site whose trap the
// model guarantees, or it is a legally speculated read. It returns an error
// describing the first violation.
//
// The AIXIllegalImplicit configuration intentionally violates this (the
// paper runs it "purely for experimental purpose"); every other pipeline is
// tested against this checker.
func CheckGuards(f *ir.Func, m *arch.Model) error {
	ws := getWorkspace()
	defer ws.release()
	res := nonNullAnalysis(f, ws, nil)
	defer res.Release()
	cur := &ws.cur
	cur.Reset(f.NumLocals())
	ws.num.Renumber(f, true)
	for _, b := range ws.num.Order {
		cur.CopyFrom(res.In(b))
		for _, in := range b.Instrs {
			if sa, ok := in.SlotAccessInfo(); ok {
				switch {
				case cur.Has(int(sa.Base)):
					// Guarded by an earlier fact.
				case in.ExcSite && in.ExcVar == sa.Base && m.TrapsForAccess(sa):
					// Implicit check: the trap is guaranteed and marked.
				case in.Speculated && !sa.IsWrite && m.SpeculativeReads:
					// Legal speculation: a null read cannot trap here.
				default:
					return fmt.Errorf("%s: %s in %s: unguarded dereference of v%d",
						f.Name, in, b, sa.Base)
				}
			}
			stepNonNull(cur, in)
		}
	}
	return nil
}
