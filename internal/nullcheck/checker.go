package nullcheck

import (
	"fmt"

	"trapnull/internal/arch"
	"trapnull/internal/bitset"
	"trapnull/internal/cfg"
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
	res := nonNullAnalysis(f, nil)
	defer res.Release()
	cur := bitset.New(f.NumLocals())
	for _, b := range cfg.ReversePostorderWithHandlers(f) {
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

// CheckProgram runs CheckGuards over every method body of a program.
func CheckProgram(p *ir.Program, m *arch.Model) error {
	for _, method := range p.Methods {
		if method.Fn == nil {
			continue
		}
		if err := CheckGuards(method.Fn, m); err != nil {
			return err
		}
	}
	return nil
}
