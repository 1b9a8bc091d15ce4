package machine

import (
	"errors"
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

// fusedPairs counts the superinstructions the closure engine built for fn.
func fusedPairs(m *Machine, fn *ir.Func) int {
	n := 0
	for _, cb := range m.compiled(fn).blocks {
		for _, sg := range cb.segs {
			n += int(sg.count) - len(sg.charged)
		}
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
						_, _, st, _ := runEngine(EngineSwitch, am, p, fn, 0, setup)
						for limit := int64(1); limit <= st.Instrs; limit++ {
							_, err := assertEnginesAgree(t, am, p, fn, limit, setup)
							if limit < st.Instrs && !errors.Is(err, ErrStepLimit) {
								t.Fatalf("limit=%d of %d: err=%v, want ErrStepLimit", limit, st.Instrs, err)
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

// TestEngineCmpIfFusion drives the cmp→if superinstruction down both edges,
// with var/var and var/const compares, and reads the cmp result after the
// branch: fusion must still write it for later blocks.
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
		{"cmpif-var", 1, cmpIf(func(j ir.VarID) ir.Operand { return ir.Var(j) }), inputs},
		{"cmpif-const", 1, cmpIf(func(ir.VarID) ir.Operand { return ir.ConstInt(2) }), inputs},
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
		_, _, st, _ := runEngine(EngineSwitch, am, p, fn, 0, setup)
		for limit := int64(1); limit <= st.Instrs+1; limit++ {
			out, err := assertEnginesAgree(t, am, p, fn, limit, setup)
			if limit < st.Instrs {
				if !errors.Is(err, ErrStepLimit) {
					t.Fatalf("%s limit=%d: err=%v, want ErrStepLimit", am.Name, limit, err)
				}
			} else if err != nil || out.Value != 21 {
				t.Fatalf("%s limit=%d: out=%+v err=%v, want 21", am.Name, limit, out, err)
			}
		}
	}
}
