package opt

import (
	"sort"

	"trapnull/internal/arch"
	"trapnull/internal/bitset"
	"trapnull/internal/cfg"
	"trapnull/internal/ir"
	"trapnull/internal/nullcheck"
)

// ScalarStats reports what ScalarReplace did.
type ScalarStats struct {
	// CSE counts redundant loads replaced by register moves.
	CSE int
	// Hoisted counts loop-invariant instructions moved to preheaders.
	Hoisted int
	// Promoted counts field locations promoted to a register across a loop
	// (the Figure 6 transformation).
	Promoted int
	// Speculated counts loads hoisted above their null checks on
	// architectures where a null read cannot trap (§3.3.1).
	Speculated int
}

// Add accumulates other into s.
func (s *ScalarStats) Add(o ScalarStats) {
	s.CSE += o.CSE
	s.Hoisted += o.Hoisted
	s.Promoted += o.Promoted
	s.Speculated += o.Speculated
}

// ScalarReplace performs the paper's "scalar replacement" family: local
// common-subexpression elimination of memory reads, loop-invariant code
// motion of pure operations and guarded (or speculated) reads, and loop
// register promotion of fields. Null checks gate every memory hoist: a read
// only leaves the loop when its base is proven non-null at the preheader —
// which is exactly what iterating with phase 1 provides — or when the model
// permits read speculation.
func ScalarReplace(f *ir.Func, m *arch.Model) ScalarStats {
	st := ScalarStats{}
	st.CSE += localCSE(f)

	f.RecomputeEdges()
	doms := cfg.ComputeDominators(f)
	loops := cfg.FindLoops(f, doms)
	if len(loops) == 0 {
		return st
	}
	cfg.EnsurePreheaders(f, loops)
	f.RecomputeEdges()
	nonNull, release := nullcheck.NonNullOut(f)
	defer release()

	defCount := countDefs(f)
	for _, l := range loops {
		if loopTouchesTry(l) {
			// Inside a try region every local write is observable by the
			// handler (the paper's barrier rule), so changing when any
			// instruction of the loop executes relative to a potential
			// exception is illegal. No motion in or across regions.
			continue
		}
		h, s := hoistLoop(f, l, m, nonNull, defCount)
		st.Hoisted += h
		st.Speculated += s
		p, ps := promoteLoop(f, l, m, nonNull)
		st.Promoted += p
		st.Speculated += ps
	}
	return st
}

// loadKey identifies the value a memory read produces.
type loadKey struct {
	op    ir.Op
	base  ir.VarID
	field *ir.Field
	// Index operand for array loads.
	idxIsVar bool
	idxVar   ir.VarID
	idxConst int64
}

func keyOfLoad(in *ir.Instr) (loadKey, bool) {
	switch in.Op {
	case ir.OpGetField:
		if in.Args[0].IsVar() {
			return loadKey{op: in.Op, base: in.Args[0].Var, field: in.Field}, true
		}
	case ir.OpArrayLength:
		if in.Args[0].IsVar() {
			return loadKey{op: in.Op, base: in.Args[0].Var}, true
		}
	case ir.OpArrayLoad:
		if !in.Args[0].IsVar() {
			break
		}
		k := loadKey{op: in.Op, base: in.Args[0].Var}
		switch in.Args[1].Kind {
		case ir.OperVar:
			k.idxIsVar = true
			k.idxVar = in.Args[1].Var
		case ir.OperConstInt:
			k.idxConst = in.Args[1].Int
		default:
			return loadKey{}, false
		}
		return k, true
	}
	return loadKey{}, false
}

// CSE runs only the block-local redundant-load elimination, without any
// loop motion. The simulated HotSpot comparator uses it: the 1999 server
// compiler the paper measured did not have the iterated loop-invariant
// machinery under test here.
func CSE(f *ir.Func) int { return localCSE(f) }

// localCSE replaces a repeated read of the same location within a block by a
// move from the variable holding the earlier result.
func localCSE(f *ir.Func) int {
	replaced := 0
	for _, b := range f.Blocks {
		avail := map[loadKey]ir.VarID{}
		for _, in := range b.Instrs {
			k, isLoad := keyOfLoad(in)
			if isLoad && !in.ExcSite && !in.Speculated {
				if src, hit := avail[k]; hit && src != in.Dst {
					in.Op = ir.OpMove
					in.Args = []ir.Operand{ir.Var(src)}
					in.Field = nil
					replaced++
					isLoad = false
				}
			} else {
				isLoad = false
			}
			invalidateLoads(avail, in)
			// Record after invalidation so the fact defined by this very
			// instruction survives; a load whose destination doubles as its
			// base (a = a.f) cannot be recorded.
			if isLoad && in.Dst != k.base && !(k.idxIsVar && in.Dst == k.idxVar) {
				avail[k] = in.Dst
			}
		}
	}
	return replaced
}

// invalidateLoads drops availability facts clobbered by in.
func invalidateLoads(avail map[loadKey]ir.VarID, in *ir.Instr) {
	switch in.Op {
	case ir.OpPutField:
		for k := range avail {
			if k.op == ir.OpGetField && k.field == in.Field {
				delete(avail, k)
			}
		}
	case ir.OpArrayStore:
		for k := range avail {
			if k.op == ir.OpArrayLoad {
				delete(avail, k)
			}
		}
	case ir.OpCallStatic, ir.OpCallVirtual:
		for k := range avail {
			delete(avail, k)
		}
	}
	if in.HasDst() {
		for k, v := range avail {
			if v == in.Dst || k.base == in.Dst || (k.idxIsVar && k.idxVar == in.Dst) {
				delete(avail, k)
			}
		}
	}
}

func countDefs(f *ir.Func) map[ir.VarID]int {
	defs := map[ir.VarID]int{}
	// Parameters carry an implicit definition at function entry: an
	// instruction assigning one is always a REdefinition, and hoisting it
	// would clobber the incoming value for earlier uses.
	for i := 0; i < f.NumParams; i++ {
		defs[ir.VarID(i)] = 1
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.HasDst() {
				defs[in.Dst]++
			}
		}
	}
	return defs
}

func loopTouchesTry(l *cfg.Loop) bool {
	if l.Preheader.Try != ir.NoTry {
		return true
	}
	for b := range l.Blocks {
		if b.Try != ir.NoTry {
			return true
		}
	}
	return false
}

// loopSummary captures the memory behaviour of a loop body.
type loopSummary struct {
	hasCall       bool
	hasArrayStore bool
	storedFields  map[*ir.Field]bool
	defsInLoop    map[ir.VarID]int
	// checkedInLoop marks variables with a surviving null check inside the
	// loop. A read of such a base may not leave the loop: the check is its
	// motion barrier (the paper's Figure 4 interplay — only after phase 1
	// removes the in-loop check does the load become hoistable), unless
	// the model permits read speculation.
	checkedInLoop map[ir.VarID]bool
}

func summarizeLoop(l *cfg.Loop) loopSummary {
	s := loopSummary{
		storedFields:  map[*ir.Field]bool{},
		defsInLoop:    map[ir.VarID]int{},
		checkedInLoop: map[ir.VarID]bool{},
	}
	for b := range l.Blocks {
		for _, in := range b.Instrs {
			switch in.Op {
			case ir.OpCallStatic, ir.OpCallVirtual:
				s.hasCall = true
			case ir.OpArrayStore:
				s.hasArrayStore = true
			case ir.OpPutField:
				s.storedFields[in.Field] = true
			case ir.OpNullCheck:
				s.checkedInLoop[in.NullCheckVar()] = true
			}
			if in.HasDst() {
				s.defsInLoop[in.Dst]++
			}
		}
	}
	return s
}

// hoistLoop moves loop-invariant instructions of loop l into its preheader.
// Returns (hoisted, speculated) counts.
//
// An instruction hoists when every variable operand is loop-invariant, its
// destination has a single definition in the function (builder temporaries),
// and its category permits motion:
//
//   - pure non-throwing computation: always;
//   - memory read: additionally no killing store or call in the loop, and the
//     base must be proven non-null at the preheader (its check was hoisted,
//     typically by phase 1) or the model must allow read speculation, in
//     which case the hoisted read is marked Speculated;
//   - bounds check: additionally it must sit in the loop header before any
//     side effect, so that it is anticipated on loop entry and hoisting it
//     cannot surface an exception early across observable state.
func hoistLoop(f *ir.Func, l *cfg.Loop, m *arch.Model, nonNull map[*ir.Block]*bitset.Set, defCount map[ir.VarID]int) (int, int) {
	sum := summarizeLoop(l)
	pre := l.Preheader
	hoisted, speculated := 0, 0

	invariantOperand := func(a ir.Operand) bool {
		return !a.IsVar() || sum.defsInLoop[a.Var] == 0
	}
	invariant := func(in *ir.Instr) bool {
		for _, a := range in.Args {
			if !invariantOperand(a) {
				return false
			}
		}
		return true
	}

	// Iterate: hoisting one definition can make dependents invariant.
	for changed := true; changed; {
		changed = false
		// Visit the header first so dependency order (length before bounds
		// check before element load) is preserved in the preheader; the
		// remaining blocks go in ID order for deterministic output.
		blocks := []*ir.Block{l.Header}
		for _, b := range f.Blocks {
			if l.Blocks[b] && b != l.Header {
				blocks = append(blocks, b)
			}
		}
		for _, b := range blocks {
			sideEffectSeen := false
			for i := 0; i < len(b.Instrs); i++ {
				in := b.Instrs[i]
				if in.IsTerminator() {
					break
				}
				move := false
				speculate := false
				switch {
				case in.ExcSite || in.Speculated:
					// Never disturb an implicit check site.
				case pureNonThrowing(in):
					move = in.HasDst() && defCount[in.Dst] == 1 && invariant(in)
				case in.Op == ir.OpGetField || in.Op == ir.OpArrayLength || in.Op == ir.OpArrayLoad:
					if in.HasDst() && defCount[in.Dst] == 1 && invariant(in) && !loadKilledInLoop(in, sum) {
						base := in.Args[0].Var
						switch {
						case !sum.checkedInLoop[base] &&
							nonNull[pre] != nil && nonNull[pre].Has(int(base)):
							move = true
						case m.SpeculativeReads:
							move = true
							speculate = true
						}
					}
				case in.Op == ir.OpBoundCheck:
					move = b == l.Header && !sideEffectSeen && invariant(in)
				}
				if move {
					b.RemoveInstr(i)
					i--
					if speculate {
						in.Speculated = true
						speculated++
					}
					pre.InsertBeforeTerminator(in)
					if in.HasDst() {
						sum.defsInLoop[in.Dst] = 0
					}
					hoisted++
					changed = true
					continue
				}
				if in.WritesMemory() || in.CanThrowOther() {
					sideEffectSeen = true
				}
			}
		}
	}
	return hoisted, speculated
}

// pureNonThrowing reports whether the instruction computes a value with no
// possible exception and no memory access.
func pureNonThrowing(in *ir.Instr) bool {
	switch in.Op {
	case ir.OpMove, ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpAnd, ir.OpOr, ir.OpXor,
		ir.OpShl, ir.OpShr, ir.OpNeg, ir.OpNot,
		ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFNeg,
		ir.OpIntToFloat, ir.OpFloatToInt, ir.OpCmp, ir.OpMath:
		return true
	case ir.OpInstanceOf:
		// Pure, but pinned: the instanceof-if Edge rule (§4.1.2) is
		// recognized block-locally, so separating the test from its branch
		// would strand non-null facts that earlier passes already used.
		return false
	}
	return false
}

// loadKilledInLoop reports whether any store or call in the loop may change
// the value in's read observes.
func loadKilledInLoop(in *ir.Instr, sum loopSummary) bool {
	if sum.hasCall {
		return true
	}
	switch in.Op {
	case ir.OpGetField:
		return sum.storedFields[in.Field]
	case ir.OpArrayLength:
		// Array lengths are immutable after allocation.
		return false
	case ir.OpArrayLoad:
		return sum.hasArrayStore
	}
	return true
}

// promoteLoop applies the Figure 6 transformation: a field read and written
// through one invariant base inside a loop is kept in a register; loads
// become register moves, stores update the register and still write through
// for precise visibility. Returns (promotions, speculated loads).
func promoteLoop(f *ir.Func, l *cfg.Loop, m *arch.Model, nonNull map[*ir.Block]*bitset.Set) (int, int) {
	sum := summarizeLoop(l)
	if sum.hasCall {
		return 0, 0
	}
	pre := l.Preheader

	// Candidate fields: loaded and stored in the loop, always through the
	// same invariant base variable.
	type access struct {
		base   ir.VarID
		loads  int
		stores int
		mixed  bool // multiple bases or non-var base
	}
	cand := map[*ir.Field]*access{}
	for b := range l.Blocks {
		for _, in := range b.Instrs {
			if in.Op != ir.OpGetField && in.Op != ir.OpPutField {
				continue
			}
			a := cand[in.Field]
			if a == nil {
				a = &access{base: -2}
				cand[in.Field] = a
			}
			if !in.Args[0].IsVar() || in.ExcSite || in.Speculated {
				a.mixed = true
				continue
			}
			base := in.Args[0].Var
			if a.base == -2 {
				a.base = base
			} else if a.base != base {
				a.mixed = true
			}
			if in.Op == ir.OpGetField {
				a.loads++
			} else {
				a.stores++
			}
		}
	}

	// Deterministic order for the preheader initializers.
	fields := make([]*ir.Field, 0, len(cand))
	for field := range cand {
		fields = append(fields, field)
	}
	sort.Slice(fields, func(i, j int) bool { return fields[i].String() < fields[j].String() })

	promoted, speculated := 0, 0
	for _, field := range fields {
		a := cand[field]
		if a.mixed || a.stores == 0 || a.loads == 0 || sum.defsInLoop[a.base] != 0 {
			continue
		}
		spec := false
		switch {
		case !sum.checkedInLoop[a.base] && nonNull[pre] != nil && nonNull[pre].Has(int(a.base)):
		case m.SpeculativeReads:
			spec = true
		default:
			continue
		}
		tmp := f.NewLocal("prom_"+field.Name, field.Kind)
		init := &ir.Instr{Op: ir.OpGetField, Dst: tmp, Field: field, Args: []ir.Operand{ir.Var(a.base)}}
		if spec {
			init.Speculated = true
			speculated++
		}
		pre.InsertBeforeTerminator(init)
		for b := range l.Blocks {
			for i := 0; i < len(b.Instrs); i++ {
				in := b.Instrs[i]
				switch {
				case in.Op == ir.OpGetField && in.Field == field:
					in.Op = ir.OpMove
					in.Args = []ir.Operand{ir.Var(tmp)}
					in.Field = nil
				case in.Op == ir.OpPutField && in.Field == field:
					// tmp = src; base.f = tmp
					src := in.Args[1]
					b.InsertBefore(i, &ir.Instr{Op: ir.OpMove, Dst: tmp, Args: []ir.Operand{src}})
					i++
					in.Args[1] = ir.Var(tmp)
				}
			}
		}
		promoted++
	}
	return promoted, speculated
}
