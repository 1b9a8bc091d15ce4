package machine

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"trapnull/internal/arch"
	"trapnull/internal/ir"
	"trapnull/internal/rt"
)

// Pattern-enumerated superinstruction tests. Every fusion rule is built in
// each operand shape it accepts, placed four ways in its block (alone, right
// before a call, right after a call, inside a try region), driven with
// inputs on both sides of its check, and differentially compared with the
// switch interpreter at every step limit from 1 to the run's full count —
// so the limit lands before, between and after the two halves of the pair,
// and inside the callee.

// fusionInput is one argument vector for a fusion case's (a, i, j) params,
// the exception it must raise (rt.ExcNone when it completes) and, when it
// completes, the value the function must return.
type fusionInput struct {
	name string
	args func(m *Machine, c *ir.Class) []int64
	exc  rt.ExcKind
	want int64
}

// fusionCase is one fusion rule in one operand shape. emit emits the pair
// into the current block — possibly branching and leaving the builder in a
// later block — and returns the value the function returns.
type fusionCase struct {
	name   string
	fused  int // superinstructions the closure engine must build
	emit   func(b *ir.Builder, c *ir.Class, a, i, j ir.VarID) ir.Operand
	inputs []fusionInput
}

// fusionPlacements are the positions of the pair within its block.
var fusionPlacements = []string{"alone", "before-call", "after-call", "in-try"}

// fusionFn builds f(a, i, j) around one case at one placement. The call
// goes to a two-instruction static method, so it is a stretch boundary
// with a callee whose steps the limit sweep also reaches.
func fusionFn(t *testing.T, p *ir.Program, c *ir.Class, fc fusionCase, placement string) *ir.Func {
	t.Helper()
	cb := ir.NewFunc("bump", false)
	x := cb.Param("x", ir.KindInt)
	cb.Result(ir.KindInt)
	cb.Block("entry")
	y := cb.Temp(ir.KindInt)
	cb.Binop(ir.OpAdd, y, ir.Var(x), ir.ConstInt(1))
	cb.Return(ir.Var(y))
	bump := p.AddMethod(nil, "bump", cb.Finish(), false)

	b := ir.NewFunc("fused_"+fc.name, false)
	a := b.Param("a", ir.KindRef)
	i := b.Param("i", ir.KindInt)
	j := b.Param("j", ir.KindInt)
	b.Result(ir.KindInt)
	entry := b.Block("entry")
	call := func() {
		r := b.Temp(ir.KindInt)
		b.CallStatic(r, bump, ir.Var(j))
	}
	if placement == "after-call" {
		call()
	}
	ret := fc.emit(b, c, a, i, j)
	if placement == "before-call" {
		call()
	}
	b.Return(ret)
	f := b.F
	if placement == "in-try" {
		handler := b.DeclareBlock("handler")
		exc := b.Local("exc", ir.KindRef)
		b.SetBlock(handler)
		b.Return(ir.ConstInt(-1))
		entry.Try = f.NewRegion(handler, exc).ID
	}
	f.RecomputeEdges()
	if err := ir.Validate(f); err != nil {
		t.Fatal(err)
	}
	return f
}

// fusedPairs counts the superinstructions the closure engine built for fn:
// the instructions each fused closure runs beyond its first. Inline
// terminators and their move/add folds, which a stretch's count covers
// without a charged closure, are not pairs; inlineShape counts them.
func fusedPairs(m *Machine, fn *ir.Func) int {
	n := 0
	for _, cb := range m.compiled(fn).blocks {
		for _, sg := range append([]cSeg{cb.seg}, cb.more...) {
			n += int(sg.count) - len(sg.charged)
		}
		terms, folds := inlineShape(&cb.term)
		n -= terms + folds
	}
	return n
}

// runFusionCases checks every case × placement × input × step limit on both
// arch models.
func runFusionCases(t *testing.T, cases []fusionCase) {
	for _, am := range []*arch.Model{arch.IA32Win(), arch.PPCAIX()} {
		for _, fc := range cases {
			for _, placement := range fusionPlacements {
				p, c := prog()
				fn := fusionFn(t, p, c, fc, placement)
				if got := fusedPairs(New(am, p), fn); got != fc.fused {
					t.Fatalf("%s/%s/%s: %d fused pairs, want %d", am.Name, fc.name, placement, got, fc.fused)
				}
				for _, in := range fc.inputs {
					t.Run(am.Name+"/"+fc.name+"/"+placement+"/"+in.name, func(t *testing.T) {
						setup := func(m *Machine) []int64 { return in.args(m, c) }
						out, err := assertEnginesAgree(t, am, p, fn, 0, setup)
						switch {
						case err != nil:
							t.Fatal(err)
						case in.exc != rt.ExcNone && placement == "in-try":
							if out.Exc != rt.ExcNone || out.Value != -1 {
								t.Fatalf("out=%+v, want the handler's -1", out)
							}
						case out.Exc != in.exc:
							t.Fatalf("out=%+v, want exception %v", out, in.exc)
						case in.exc == rt.ExcNone && out.Value != in.want:
							t.Fatalf("out=%+v, want value %d", out, in.want)
						}
						ref, _ := runEngine(switchSide, am, p, fn, 0, setup)
						for limit := int64(1); limit <= ref.stats.Instrs; limit++ {
							_, err := assertEnginesAgree(t, am, p, fn, limit, setup)
							if limit < ref.stats.Instrs && !errors.Is(err, ErrStepLimit) {
								t.Fatalf("limit=%d of %d: err=%v, want ErrStepLimit", limit, ref.stats.Instrs, err)
							}
						}
					})
				}
			}
		}
	}
}

// refInputs are a null and a non-null reference from alloc; the non-null
// run returns want. j is always 7.
func refInputs(alloc func(m *Machine, c *ir.Class) int64, want int64) []fusionInput {
	return []fusionInput{
		{"null", func(*Machine, *ir.Class) []int64 { return []int64{0, 0, 7} }, rt.ExcNullPointer, 0},
		{"nonnull", func(m *Machine, c *ir.Class) []int64 { return []int64{alloc(m, c), 0, 7} }, rt.ExcNone, want},
	}
}

func allocObject(m *Machine, c *ir.Class) int64 {
	o := m.Heap.AllocObject(c)
	m.Heap.Store(o+int64(c.FieldByName("f").Offset), 5)
	return o
}

// fusionArrayLen is the length of the arrays the bound-check cases index.
const fusionArrayLen = 4

// allocArray returns an array whose element k holds 10+k.
func allocArray(m *Machine, _ *ir.Class) int64 {
	arr := m.Heap.AllocArray(fusionArrayLen)
	for k := int64(0); k < fusionArrayLen; k++ {
		m.Heap.Store(arr+ir.ArrayHeaderBytes+k*ir.WordBytes, 10+k)
	}
	return arr
}

// TestEngineNullCheckFusion covers nullcheck→{getfield, putfield,
// arraylength} on the same base variable, with constant and variable stored
// values, on null and non-null bases.
func TestEngineNullCheckFusion(t *testing.T) {
	runFusionCases(t, []fusionCase{
		{"get", 1, func(b *ir.Builder, c *ir.Class, a, _, _ ir.VarID) ir.Operand {
			v := b.Temp(ir.KindInt)
			b.GetField(v, a, c.FieldByName("f"))
			return ir.Var(v)
		}, refInputs(allocObject, 5)},
		{"put-const", 1, func(b *ir.Builder, c *ir.Class, a, _, _ ir.VarID) ir.Operand {
			b.PutField(a, c.FieldByName("f"), ir.ConstInt(9))
			return ir.ConstInt(1)
		}, refInputs(allocObject, 1)},
		{"put-var", 1, func(b *ir.Builder, c *ir.Class, a, _, j ir.VarID) ir.Operand {
			b.PutField(a, c.FieldByName("g"), ir.Var(j))
			return ir.Var(j)
		}, refInputs(allocObject, 7)},
		{"len", 1, func(b *ir.Builder, _ *ir.Class, a, _, _ ir.VarID) ir.Operand {
			v := b.Temp(ir.KindInt)
			b.ArrayLength(v, a)
			return ir.Var(v)
		}, refInputs(allocArray, fusionArrayLen)},
	})
}

// TestEngineBoundCheckFusion covers boundcheck→{arrayload, arraystore}
// indexed by the checked variable, at indexes -1, 0, len-1 and len and on a
// null array. Each checked access also fuses its nullcheck→arraylength.
// The store cases read the element back, a second fused access pair each.
func TestEngineBoundCheckFusion(t *testing.T) {
	// inputs returns the null and index inputs; an in-bounds index i
	// returns want(i).
	inputs := func(want func(i int64) int64) []fusionInput {
		in := []fusionInput{
			{"null", func(*Machine, *ir.Class) []int64 { return []int64{0, 0, 7} }, rt.ExcNullPointer, 0},
		}
		for _, idx := range []struct {
			name string
			i    int64
			exc  rt.ExcKind
		}{
			{"idx-1", -1, rt.ExcArrayIndexOutOfBounds},
			{"idx0", 0, rt.ExcNone},
			{"idxlen-1", fusionArrayLen - 1, rt.ExcNone},
			{"idxlen", fusionArrayLen, rt.ExcArrayIndexOutOfBounds},
		} {
			in = append(in, fusionInput{idx.name, func(m *Machine, c *ir.Class) []int64 {
				return []int64{allocArray(m, c), idx.i, 7}
			}, idx.exc, want(idx.i)})
		}
		return in
	}
	runFusionCases(t, []fusionCase{
		{"aload", 2, func(b *ir.Builder, _ *ir.Class, a, i, _ ir.VarID) ir.Operand {
			v := b.Temp(ir.KindInt)
			b.ArrayLoad(v, a, ir.Var(i))
			return ir.Var(v)
		}, inputs(func(i int64) int64 { return 10 + i })},
		{"astore-const", 4, func(b *ir.Builder, _ *ir.Class, a, i, _ ir.VarID) ir.Operand {
			b.ArrayStore(a, ir.Var(i), ir.ConstInt(3))
			v := b.Temp(ir.KindInt)
			b.ArrayLoad(v, a, ir.Var(i))
			return ir.Var(v)
		}, inputs(func(int64) int64 { return 3 })},
		{"astore-var", 4, func(b *ir.Builder, _ *ir.Class, a, i, j ir.VarID) ir.Operand {
			b.ArrayStore(a, ir.Var(i), ir.Var(j))
			v := b.Temp(ir.KindInt)
			b.ArrayLoad(v, a, ir.Var(i))
			return ir.Var(v)
		}, inputs(func(int64) int64 { return 7 })},
	})
}

// TestEngineCmpIfFusion drives a compare feeding an inline if down both
// edges, with var/var and var/const compares, and reads the compare's result
// after the branch. Nothing fuses: the compare runs as its own charged
// closure and the if inline.
func TestEngineCmpIfFusion(t *testing.T) {
	cmpIf := func(y func(j ir.VarID) ir.Operand) func(b *ir.Builder, _ *ir.Class, _, i, j ir.VarID) ir.Operand {
		return func(b *ir.Builder, _ *ir.Class, _, i, j ir.VarID) ir.Operand {
			lt := b.DeclareBlock("lt")
			ge := b.DeclareBlock("ge")
			join := b.DeclareBlock("join")
			cres := b.Local("cres", ir.KindInt)
			r := b.Local("r", ir.KindInt)
			b.Cmp(cres, ir.CondLT, ir.Var(i), y(j))
			b.If(ir.CondNE, ir.Var(cres), ir.ConstInt(0), lt, ge)
			b.SetBlock(lt)
			b.Binop(ir.OpAdd, r, ir.Var(cres), ir.ConstInt(100))
			b.Jump(join)
			b.SetBlock(ge)
			b.Move(r, ir.Var(cres))
			b.Jump(join)
			b.SetBlock(join)
			return ir.Var(r)
		}
	}
	args := func(i, j int64) func(*Machine, *ir.Class) []int64 {
		return func(*Machine, *ir.Class) []int64 { return []int64{0, i, j} }
	}
	// The lt edge returns cres+100 = 101; the ge edge returns cres = 0.
	inputs := []fusionInput{
		{"lt", args(1, 2), rt.ExcNone, 101},
		{"gt", args(2, 1), rt.ExcNone, 0},
		{"eq", args(2, 2), rt.ExcNone, 0},
	}
	runFusionCases(t, []fusionCase{
		{"cmpif-var", 0, cmpIf(func(j ir.VarID) ir.Operand { return ir.Var(j) }), inputs},
		{"cmpif-const", 0, cmpIf(func(ir.VarID) ir.Operand { return ir.ConstInt(2) }), inputs},
	})
}

// TestEngineStepLimitAcrossCall sweeps the step limit across a caller with
// instructions before and after a call to a looping callee. The call ends
// its charged stretch, so the callee's limit check must see the caller's
// steps exactly as of the call: charging even one instruction past the call
// would fire the limit inside the callee where the reference fires it in the
// caller.
func TestEngineStepLimitAcrossCall(t *testing.T) {
	p, _ := prog()
	loop := boundedFn()
	meth := p.AddMethod(nil, "bounded", loop, false)

	b := ir.NewFunc("caller", false)
	n := b.Param("n", ir.KindInt)
	b.Result(ir.KindInt)
	b.Block("entry")
	x := b.Temp(ir.KindInt)
	b.Binop(ir.OpAdd, x, ir.Var(n), ir.ConstInt(1))
	y := b.Temp(ir.KindInt)
	b.Binop(ir.OpSub, y, ir.Var(x), ir.ConstInt(1))
	r := b.Temp(ir.KindInt)
	b.CallStatic(r, meth, ir.Var(y))
	z := b.Temp(ir.KindInt)
	b.Binop(ir.OpMul, z, ir.Var(r), ir.ConstInt(3))
	w := b.Temp(ir.KindInt)
	b.Binop(ir.OpAdd, w, ir.Var(z), ir.Var(x))
	b.Return(ir.Var(w))
	fn := b.Finish()

	setup := func(*Machine) []int64 { return []int64{5} }
	for _, am := range []*arch.Model{arch.IA32Win(), arch.PPCAIX()} {
		ref, _ := runEngine(switchSide, am, p, fn, 0, setup)
		for limit := int64(1); limit <= ref.stats.Instrs+1; limit++ {
			out, err := assertEnginesAgree(t, am, p, fn, limit, setup)
			if limit < ref.stats.Instrs {
				if !errors.Is(err, ErrStepLimit) {
					t.Fatalf("%s limit=%d: err=%v, want ErrStepLimit", am.Name, limit, err)
				}
			} else if err != nil || out.Value != 21 {
				t.Fatalf("%s limit=%d: out=%+v err=%v, want 21", am.Name, limit, out, err)
			}
		}
	}
}

// inlineShape reports whether a block runs its terminator inline (terms)
// and whether that terminator carries a folded pre-op (folds), as 0 or 1.
func inlineShape(t *cTerm) (terms, folds int) {
	if t.kind != termClosure {
		terms = 1
	}
	if t.pre != preNone {
		folds = 1
	}
	return terms, folds
}

// inlineCase is a fusion case whose blocks end in terminators the block
// loop runs inline: in the "alone" placement fn must have terms inline
// terminators, folds of them carrying a folded pre-op.
type inlineCase struct {
	fusionCase
	terms, folds int
}

// runInlineCases checks each case's inline shape, then runs it through
// runFusionCases: every placement, input and step limit on both models.
func runInlineCases(t *testing.T, cases []inlineCase) {
	t.Helper()
	var fcs []fusionCase
	for _, ic := range cases {
		p, c := prog()
		fn := fusionFn(t, p, c, ic.fusionCase, "alone")
		terms, folds := 0, 0
		for _, cb := range New(arch.IA32Win(), p).compiled(fn).blocks {
			tm, fd := inlineShape(&cb.term)
			terms, folds = terms+tm, folds+fd
		}
		if terms != ic.terms || folds != ic.folds {
			t.Fatalf("%s: %d inline terminators, %d folds; want %d, %d", ic.name, terms, folds, ic.terms, ic.folds)
		}
		fcs = append(fcs, ic.fusionCase)
	}
	runFusionCases(t, fcs)
}

// intArgs is the argument vector (null, i, j).
func intArgs(i, j int64) func(*Machine, *ir.Class) []int64 {
	return func(*Machine, *ir.Class) []int64 { return []int64{0, i, j} }
}

// holds evaluates cond on two integers, the reference's way.
func holds(c ir.Cond, x, y int64) bool {
	switch c {
	case ir.CondEQ:
		return x == y
	case ir.CondNE:
		return x != y
	case ir.CondLT:
		return x < y
	case ir.CondLE:
		return x <= y
	case ir.CondGT:
		return x > y
	}
	return x >= y
}

// branchArms emits `if cond x, y` to a then arm (r = x - j; jump: a plain
// inline jump) and an else arm (r = 100; jump: a move-const fold), joining
// at a block that returns r inline.
func branchArms(b *ir.Builder, cond ir.Cond, x, y ir.Operand, j ir.VarID) ir.Operand {
	then := b.DeclareBlock("then")
	els := b.DeclareBlock("else")
	join := b.DeclareBlock("join")
	r := b.Local("r", ir.KindInt)
	b.If(cond, x, y, then, els)
	b.SetBlock(then)
	b.Binop(ir.OpSub, r, x, ir.Var(j))
	b.Jump(join)
	b.SetBlock(els)
	b.Move(r, ir.ConstInt(100))
	b.Jump(join)
	b.SetBlock(join)
	return ir.Var(r)
}

// TestEngineInlineTerminators covers every terminator shape the block loop
// runs inline — jump, integer if var/const and var/var under each of the
// six conditions, and return of a variable (the join) and a constant (the
// try handler) — against i below, at and above the compared value, plus
// the shapes that stay closures: a const-first and a float if.
func TestEngineInlineTerminators(t *testing.T) {
	var cases []inlineCase
	for c := ir.CondEQ; c <= ir.CondGE; c++ {
		var inputs []fusionInput
		for _, i := range []int64{1, 2, 3} {
			want := int64(100)
			if holds(c, i, 2) {
				want = i - 2
			}
			inputs = append(inputs, fusionInput{fmt.Sprintf("i%d", i), intArgs(i, 2), rt.ExcNone, want})
		}
		cond := c
		cases = append(cases,
			inlineCase{fusionCase{"if-vk-" + c.String(), 0, func(b *ir.Builder, _ *ir.Class, _, i, j ir.VarID) ir.Operand {
				return branchArms(b, cond, ir.Var(i), ir.ConstInt(2), j)
			}, inputs}, 4, 1},
			inlineCase{fusionCase{"if-vv-" + c.String(), 0, func(b *ir.Builder, _ *ir.Class, _, i, j ir.VarID) ir.Operand {
				return branchArms(b, cond, ir.Var(i), ir.Var(j), j)
			}, inputs}, 4, 1})
	}
	// const-first: 2 < i.
	var constFirst []fusionInput
	for _, i := range []int64{1, 2, 3} {
		want := int64(100)
		if 2 < i {
			want = 2 - 2
		}
		constFirst = append(constFirst, fusionInput{fmt.Sprintf("i%d", i), intArgs(i, 2), rt.ExcNone, want})
	}
	cases = append(cases,
		inlineCase{fusionCase{"if-const-first", 0, func(b *ir.Builder, _ *ir.Class, _, i, j ir.VarID) ir.Operand {
			return branchArms(b, ir.CondLT, ir.ConstInt(2), ir.Var(i), j)
		}, constFirst}, 3, 1},
		// float: float(i) < 2.5 takes the then arm, which returns r = i - j
		// computed on the float's bits; only the branch direction matters.
		inlineCase{fusionCase{"if-float", 0, func(b *ir.Builder, _ *ir.Class, _, i, j ir.VarID) ir.Operand {
			f := b.Temp(ir.KindFloat)
			b.Unop(ir.OpIntToFloat, f, ir.Var(i))
			r := b.Local("r", ir.KindInt)
			then := b.DeclareBlock("then")
			els := b.DeclareBlock("else")
			join := b.DeclareBlock("join")
			b.If(ir.CondLT, ir.Var(f), ir.ConstFloat(2.5), then, els)
			b.SetBlock(then)
			b.Binop(ir.OpSub, r, ir.Var(i), ir.Var(j))
			b.Jump(join)
			b.SetBlock(els)
			b.Move(r, ir.ConstInt(100))
			b.Jump(join)
			b.SetBlock(join)
			return ir.Var(r)
		}, []fusionInput{
			{"lt", intArgs(1, 2), rt.ExcNone, -1},
			{"ge", intArgs(3, 2), rt.ExcNone, 100},
		}}, 3, 1})
	runInlineCases(t, cases)
}

// TestEngineReturnShapes covers the inline returns outside the fusion
// harness's int-returning frame: a void return, and constant and variable
// returns reached after a call, each at every step limit.
func TestEngineReturnShapes(t *testing.T) {
	p, _ := prog()
	cb := ir.NewFunc("seven", false)
	cb.Result(ir.KindInt)
	cb.Block("entry")
	cb.Return(ir.ConstInt(7))
	seven := p.AddMethod(nil, "seven", cb.Finish(), false)

	vb := ir.NewFunc("void", false)
	x := vb.Param("x", ir.KindInt)
	vb.Block("entry")
	y := vb.Temp(ir.KindInt)
	vb.Binop(ir.OpSub, y, ir.Var(x), ir.ConstInt(1))
	r := vb.Temp(ir.KindInt)
	vb.CallStatic(r, seven)
	vb.ReturnVoid()
	void := vb.Finish()

	rb := ir.NewFunc("viaCall", false)
	n := rb.Param("n", ir.KindInt)
	rb.Result(ir.KindInt)
	rb.Block("entry")
	s := rb.Temp(ir.KindInt)
	rb.CallStatic(s, seven)
	rb.Binop(ir.OpSub, s, ir.Var(s), ir.Var(n))
	rb.Return(ir.Var(s))
	viaCall := rb.Finish()

	for _, fn := range []*ir.Func{void, viaCall} {
		setup := func(*Machine) []int64 { return []int64{3} }
		for _, am := range []*arch.Model{arch.IA32Win(), arch.PPCAIX()} {
			ref, _ := runEngine(switchSide, am, p, fn, 0, setup)
			for limit := int64(1); limit <= ref.stats.Instrs; limit++ {
				if _, err := assertEnginesAgree(t, am, p, fn, limit, setup); limit < ref.stats.Instrs && !errors.Is(err, ErrStepLimit) {
					t.Fatalf("%s limit=%d: err=%v, want ErrStepLimit", fn.Name, limit, err)
				}
			}
			out, err := assertEnginesAgree(t, am, p, fn, 0, setup)
			if want := map[*ir.Func]int64{void: 0, viaCall: 4}[fn]; err != nil || out.Value != want {
				t.Fatalf("%s: out=%+v err=%v, want %d", fn.Name, out, err, want)
			}
		}
	}
}

// TestEngineTerminatorFolds covers each pre-op folded into an inline
// terminator — add var+const ahead of a return and an if, move const (the
// else arms) and move var — and compares var/var and var/const ahead of a
// jump, which do not fold.
func TestEngineTerminatorFolds(t *testing.T) {
	// cmpJump puts a compare ahead of a jump; TestEngineCmpIfFusion covers
	// the compare ahead of an if.
	cmpJump := func(y func(j ir.VarID) ir.Operand) func(b *ir.Builder, _ *ir.Class, _, i, j ir.VarID) ir.Operand {
		return func(b *ir.Builder, _ *ir.Class, _, i, j ir.VarID) ir.Operand {
			c := b.Local("c", ir.KindInt)
			b.Cmp(c, ir.CondGE, ir.Var(i), y(j))
			next := b.DeclareBlock("next")
			b.Jump(next)
			b.SetBlock(next)
			return ir.Var(c)
		}
	}
	jv := func(j ir.VarID) ir.Operand { return ir.Var(j) }
	k2 := func(ir.VarID) ir.Operand { return ir.ConstInt(2) }
	geInputs := []fusionInput{
		{"lt", intArgs(1, 2), rt.ExcNone, 0},
		{"eq", intArgs(2, 2), rt.ExcNone, 1},
		{"gt", intArgs(3, 2), rt.ExcNone, 1},
	}
	runInlineCases(t, []inlineCase{
		{fusionCase{"add-return", 0, func(b *ir.Builder, _ *ir.Class, _, i, _ ir.VarID) ir.Operand {
			r := b.Temp(ir.KindInt)
			b.Binop(ir.OpAdd, r, ir.Var(i), ir.ConstInt(5))
			return ir.Var(r)
		}, []fusionInput{{"i4", intArgs(4, 2), rt.ExcNone, 9}}}, 1, 1},
		{fusionCase{"add-if", 0, func(b *ir.Builder, _ *ir.Class, _, i, j ir.VarID) ir.Operand {
			k := b.Local("k", ir.KindInt)
			b.Binop(ir.OpAdd, k, ir.Var(i), ir.ConstInt(5))
			return branchArms(b, ir.CondLT, ir.Var(k), ir.Var(j), j)
		}, []fusionInput{
			{"taken", intArgs(1, 7), rt.ExcNone, -1},
			{"not-taken", intArgs(2, 7), rt.ExcNone, 100},
		}}, 4, 2},
		{fusionCase{"move-var-jump", 0, func(b *ir.Builder, _ *ir.Class, _, i, _ ir.VarID) ir.Operand {
			r := b.Local("r", ir.KindInt)
			next := b.DeclareBlock("next")
			b.Move(r, ir.Var(i))
			b.Jump(next)
			b.SetBlock(next)
			return ir.Var(r)
		}, []fusionInput{{"i4", intArgs(4, 2), rt.ExcNone, 4}}}, 2, 1},
		{fusionCase{"cmp-vv-jump", 0, cmpJump(jv), geInputs}, 2, 0},
		{fusionCase{"cmp-vk-jump", 0, cmpJump(k2), geInputs}, 2, 0},
	})
}

// TestEngineArithmeticFusion covers the profile-chosen arithmetic pairs: an
// integer multiply by a constant feeding an add (the product as either
// operand, the other a variable or a constant) and a float multiply
// feeding an add in either operand order, which must round twice.
func TestEngineArithmeticFusion(t *testing.T) {
	mulAdd := func(other func(j ir.VarID) ir.Operand, productFirst bool) func(b *ir.Builder, _ *ir.Class, _, i, j ir.VarID) ir.Operand {
		return func(b *ir.Builder, _ *ir.Class, _, i, j ir.VarID) ir.Operand {
			p := b.Local("p", ir.KindInt)
			d := b.Temp(ir.KindInt)
			b.Binop(ir.OpMul, p, ir.Var(i), ir.ConstInt(3))
			if productFirst {
				b.Binop(ir.OpAdd, d, ir.Var(p), other(j))
			} else {
				b.Binop(ir.OpAdd, d, other(j), ir.Var(p))
			}
			// A closing subtract keeps the add out of the return's fold and
			// reads the product the pair still writes.
			e := b.Temp(ir.KindInt)
			b.Binop(ir.OpSub, e, ir.Var(d), ir.Var(p))
			r := b.Temp(ir.KindInt)
			b.Binop(ir.OpAdd, r, ir.Var(e), ir.Var(d))
			return ir.Var(r)
		}
	}
	fmulAdd := func(productFirst bool) func(b *ir.Builder, _ *ir.Class, _, i, j ir.VarID) ir.Operand {
		return func(b *ir.Builder, _ *ir.Class, _, i, j ir.VarID) ir.Operand {
			fi, fj := b.Temp(ir.KindFloat), b.Temp(ir.KindFloat)
			b.Unop(ir.OpIntToFloat, fi, ir.Var(i))
			b.Unop(ir.OpIntToFloat, fj, ir.Var(j))
			p, d := b.Temp(ir.KindFloat), b.Temp(ir.KindFloat)
			b.Binop(ir.OpFMul, p, ir.Var(fi), ir.Var(fj))
			if productFirst {
				b.Binop(ir.OpFAdd, d, ir.Var(p), ir.Var(fi))
			} else {
				b.Binop(ir.OpFAdd, d, ir.Var(fi), ir.Var(p))
			}
			q := b.Temp(ir.KindFloat)
			b.Binop(ir.OpFSub, q, ir.Var(d), ir.Var(p))
			r := b.Temp(ir.KindInt)
			b.Unop(ir.OpFloatToInt, r, ir.Var(q))
			return ir.Var(r)
		}
	}
	// (i*3 + j) - i*3 + (i*3 + j) = i*3 + 2j; the constant-7 shapes give
	// i*3 + 14. The float shape gives (i*j + i) - i*j = i.
	mulInputs := func(want func(i, j int64) int64) []fusionInput {
		var in []fusionInput
		for _, v := range [][2]int64{{4, 2}, {-5, 9}} {
			in = append(in, fusionInput{fmt.Sprintf("i%dj%d", v[0], v[1]), intArgs(v[0], v[1]), rt.ExcNone, want(v[0], v[1])})
		}
		return in
	}
	jv := func(j ir.VarID) ir.Operand { return ir.Var(j) }
	k7 := func(ir.VarID) ir.Operand { return ir.ConstInt(7) }
	withJ := mulInputs(func(i, j int64) int64 { return 3*i + 2*j })
	with7 := mulInputs(func(i, _ int64) int64 { return 3*i + 14 })
	ident := mulInputs(func(i, _ int64) int64 { return i })
	runFusionCases(t, []fusionCase{
		{"muladd-var", 1, mulAdd(jv, true), withJ},
		{"muladd-var-second", 1, mulAdd(jv, false), withJ},
		{"muladd-const", 1, mulAdd(k7, true), with7},
		{"muladd-const-second", 1, mulAdd(k7, false), with7},
		{"fmuladd", 1, fmulAdd(true), ident},
		{"fmuladd-second", 1, fmulAdd(false), ident},
	})
}

// TestEngineCheckedArrayFusion covers arraylength→boundcheck→access on the
// same array, fused into one step, with the index on both sides of the
// bound. The arraylength is an implicit check: a null base traps on ia32
// and reads a zero length on AIX, so there the check fails instead; the
// null input runs separately, at every step limit, with that per-model
// exception.
func TestEngineCheckedArrayFusion(t *testing.T) {
	// checked emits `x = i; n = arraylength a (implicit); boundcheck x, n`
	// ahead of the access.
	checked := func(b *ir.Builder, a, i ir.VarID) (x ir.VarID) {
		x = b.Local("x", ir.KindInt)
		b.Move(x, ir.Var(i))
		n := b.Temp(ir.KindInt)
		b.Emit(&ir.Instr{Op: ir.OpArrayLength, Dst: n, Args: []ir.Operand{ir.Var(a)}, ExcSite: true, ExcVar: a})
		b.Emit(&ir.Instr{Op: ir.OpBoundCheck, Dst: ir.NoVar, Args: []ir.Operand{ir.Var(x), ir.Var(n)}})
		return x
	}
	load := func(b *ir.Builder, a, x ir.VarID) ir.Operand {
		v := b.Temp(ir.KindInt)
		b.Emit(&ir.Instr{Op: ir.OpArrayLoad, Dst: v, Args: []ir.Operand{ir.Var(a), ir.Var(x)}})
		return ir.Var(v)
	}
	inputs := func(want func(i int64) int64) []fusionInput {
		var in []fusionInput
		for _, idx := range []int64{-1, 0, fusionArrayLen - 1, fusionArrayLen} {
			exc := rt.ExcNone
			if idx < 0 || idx >= fusionArrayLen {
				exc = rt.ExcArrayIndexOutOfBounds
			}
			i := idx
			in = append(in, fusionInput{fmt.Sprintf("idx%d", idx), func(m *Machine, c *ir.Class) []int64 {
				return []int64{allocArray(m, c), i, 7}
			}, exc, want(idx)})
		}
		return in
	}
	cases := []fusionCase{
		{"lenbound-aload", 2, func(b *ir.Builder, _ *ir.Class, a, i, _ ir.VarID) ir.Operand {
			return load(b, a, checked(b, a, i))
		}, inputs(func(i int64) int64 { return 10 + i })},
		{"lenbound-astore", 2, func(b *ir.Builder, _ *ir.Class, a, i, j ir.VarID) ir.Operand {
			x := checked(b, a, i)
			b.Emit(&ir.Instr{Op: ir.OpArrayStore, Dst: ir.NoVar, Args: []ir.Operand{ir.Var(a), ir.Var(x), ir.Var(j)}})
			return load(b, a, x)
		}, inputs(func(int64) int64 { return 7 })},
	}
	runFusionCases(t, cases)

	null := func(*Machine) []int64 { return []int64{0, 0, 7} }
	for _, am := range []*arch.Model{arch.IA32Win(), arch.PPCAIX()} {
		want := rt.ExcNullPointer
		if !am.TrapOnRead {
			want = rt.ExcArrayIndexOutOfBounds
		}
		for _, fc := range cases {
			for _, placement := range fusionPlacements {
				p, c := prog()
				fn := fusionFn(t, p, c, fc, placement)
				ref, _ := runEngine(switchSide, am, p, fn, 0, null)
				for limit := int64(1); limit < ref.stats.Instrs; limit++ {
					if _, err := assertEnginesAgree(t, am, p, fn, limit, null); !errors.Is(err, ErrStepLimit) {
						t.Fatalf("%s/%s/%s limit=%d: err=%v, want ErrStepLimit", am.Name, fc.name, placement, limit, err)
					}
				}
				out, err := assertEnginesAgree(t, am, p, fn, 0, null)
				switch {
				case err != nil:
					t.Fatalf("%s/%s/%s: %v", am.Name, fc.name, placement, err)
				case placement == "in-try" && out.Value != -1:
					t.Fatalf("%s/%s/%s: out=%+v, want the handler's -1", am.Name, fc.name, placement, out)
				case placement != "in-try" && out.Exc != want:
					t.Fatalf("%s/%s/%s: out=%+v, want %v", am.Name, fc.name, placement, out, want)
				}
			}
		}
	}
}

// TestEngineAbortAtNextBlockEntry raises the abort flag from inside a block
// — the governor's recompile of a trapping site runs while the trap's raise
// is dispatched — and requires both engines to stop at the next block entry
// (the try handler) with identical accounting, however many instructions
// follow the trap in its block.
func TestEngineAbortAtNextBlockEntry(t *testing.T) {
	for _, tail := range []int{0, 3} {
		type result struct {
			stats  ExecStats
			cycles int64
		}
		var got []result
		for _, rung := range []tierLevel{tierInterp, tierClosureFinal} {
			p, c := prog()
			b := ir.NewFunc("f", false)
			a := b.Param("a", ir.KindRef)
			b.Result(ir.KindInt)
			entry := b.Block("entry")
			x := b.Temp(ir.KindInt)
			b.Binop(ir.OpAdd, x, ir.Var(x), ir.ConstInt(1))
			b.Emit(&ir.Instr{Op: ir.OpGetField, Dst: b.Temp(ir.KindInt), Field: c.FieldByName("f"),
				Args: []ir.Operand{ir.Var(a)}, ExcSite: true, ExcVar: a, TrapSite: 1})
			for k := 0; k < tail; k++ {
				b.Binop(ir.OpAdd, x, ir.Var(x), ir.ConstInt(1))
			}
			b.Return(ir.Var(x))
			handler := b.DeclareBlock("handler")
			b.SetBlock(handler)
			b.Return(ir.ConstInt(-1))
			f := b.F
			entry.Try = f.NewRegion(handler, ir.NoVar).ID
			f.RecomputeEdges()
			if err := ir.Validate(f); err != nil {
				t.Fatal(err)
			}
			mth := p.AddMethod(nil, "f", f, false)
			m := New(arch.IA32Win(), p)
			abort := new(atomic.Bool)
			m.Abort = abort
			m.EnableGovernor(GovernorPolicy{RecompileBudget: 2}, func(map[string][]int) (*ir.Program, error) {
				abort.Store(true)
				return nil, errors.New("recompile declined")
			})
			m.tier.stateOf(mth.Fn).tier = rung
			if _, err := m.Call(mth.Fn, 0); !errors.Is(err, ErrAborted) {
				t.Fatalf("tail %d rung %d: err=%v, want ErrAborted", tail, rung, err)
			}
			got = append(got, result{m.Stats, m.Cycles})
		}
		if got[0] != got[1] {
			t.Fatalf("tail %d: interpreter %+v, closure engine %+v", tail, got[0], got[1])
		}
		if got[0].stats.Instrs != 2 {
			t.Fatalf("tail %d: %d instructions ran, want 2 (the trap ends the block)", tail, got[0].stats.Instrs)
		}
	}
}
