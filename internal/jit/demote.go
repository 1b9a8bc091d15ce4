// Trap-storm governor compilation input.
//
// The governor (internal/machine) watches per-site trap profiles on the
// running artifact; an implicit null check site whose observed null rate
// crosses the policy threshold is demoted back to an explicit check. The
// governor hands the accumulated decisions here as a DemoteSet — method
// qualified name → stable trap-site ordinals — and the pipeline applies it
// AFTER the normal pass list has run: each selected exception site loses its
// ExcSite flag and gains an explicit OpNullCheck immediately before it in the
// same block.
//
// Site ordinals must survive recompilation, so every compile ends by
// numbering the exception sites deterministically (numberTrapSites): ordinal
// = position in block order. Compilation of a pristine program is
// deterministic, so the same source-level dereference gets the same ordinal
// in every artifact generation; a demoted site keeps its ordinal on the
// inserted check, which lets the machine alias its profile counter across
// generations. Demotion inserts instructions but never reorders or splits
// blocks, so block IDs stay aligned with the conservative artifact and
// block-boundary OSR between generations remains an exact state transfer.
package jit

import (
	"trapnull/internal/arch"
	"trapnull/internal/ir"
)

// DemoteSet is a SiteSet of trap-site ordinals (numberTrapSites order) to
// force back to explicit checks.
type DemoteSet = SiteSet

// KeyDemote builds the cache key for compiling prog under cfg on execModel
// with the given speculation and demotion sets. Either set may be nil.
func KeyDemote(prog *ir.Program, cfg Config, execModel *arch.Model, spec SpecSet, demote DemoteSet) CacheKey {
	k := Key(prog, cfg, execModel)
	k.Spec = spec.Canon()
	k.Demote = demote.Canon()
	return k
}

// numberTrapSites assigns each exception site its stable per-method ordinal
// (TrapSite = ordinal+1) in block order. It runs after every pipeline so the
// numbering is a pure function of the compiled body; because compilation is
// deterministic, ordinals agree across artifact generations of the same
// pristine program under the same config.
func numberTrapSites(prog *ir.Program) {
	for _, m := range prog.Methods {
		if m.Fn == nil {
			continue
		}
		ord := int32(0)
		for _, b := range m.Fn.Blocks {
			for _, in := range b.Instrs {
				if in.ExcSite {
					in.TrapSite = ord + 1
					ord++
				}
			}
		}
	}
}

// applyDemotion forces the selected exception sites back to explicit checks
// and returns how many were applied. For each selected site the dereference
// loses its ExcSite marking and an explicit OpNullCheck on the same base
// reference is inserted immediately before it in the same block, so the
// exception is raised at the same program point under the same try region
// and the Outcome is unchanged — only the cycle accounting moves from trap
// dispatch to a cheap software check and throw. Ordinals that match no site
// are ignored (a stale set must not corrupt a compile). Must run after
// numberTrapSites.
func applyDemotion(prog *ir.Program, demote DemoteSet) int {
	return demote.apply(prog, func(fn *ir.Func, want map[int]bool) int {
		demoted := func(in *ir.Instr) bool { return in.ExcSite && want[int(in.TrapSite)-1] }
		applied := 0
		for _, b := range fn.Blocks {
			grow := 0
			for _, in := range b.Instrs {
				if demoted(in) {
					grow++
				}
			}
			if grow == 0 {
				continue
			}
			out := make([]*ir.Instr, 0, len(b.Instrs)+grow)
			for _, in := range b.Instrs {
				if demoted(in) {
					out = append(out, &ir.Instr{
						Op:       ir.OpNullCheck,
						Dst:      ir.NoVar,
						Args:     []ir.Operand{in.Args[0]},
						Reason:   demoteReason(in.Op),
						Explicit: true,
						TrapSite: in.TrapSite,
					})
					in.ExcSite = false
					in.TrapSite = 0
					applied++
				}
				out = append(out, in)
			}
			b.Instrs = out
		}
		return applied
	})
}

// demoteReason picks the CheckReason for a check re-materialized by demotion,
// matching the reason lowering would have used for the dereference kind.
func demoteReason(op ir.Op) ir.CheckReason {
	switch op {
	case ir.OpArrayLength, ir.OpArrayLoad, ir.OpArrayStore:
		return ir.ReasonArray
	case ir.OpCallVirtual:
		return ir.ReasonCall
	}
	return ir.ReasonField
}
