package machine

import (
	"errors"
	"math"
	"strings"
	"testing"

	"trapnull/internal/arch"
	"trapnull/internal/ir"
	"trapnull/internal/rt"
)

func TestShiftMasking(t *testing.T) {
	p, _ := prog()
	b := ir.NewFunc("sh", false)
	x := b.Param("x", ir.KindInt)
	s := b.Param("s", ir.KindInt)
	b.Result(ir.KindInt)
	b.Block("entry")
	v := b.Temp(ir.KindInt)
	b.Binop(ir.OpShl, v, ir.Var(x), ir.Var(s))
	b.Return(ir.Var(v))
	f := b.Finish()

	m := New(arch.IA32Win(), p)
	// Shift counts are masked to 6 bits like real hardware.
	out, err := call(m, f, 1, 65)
	if err != nil {
		t.Fatal(err)
	}
	if out.Value != 2 {
		t.Fatalf("1 << 65 = %d, want 2 (masked shift)", out.Value)
	}
}

func TestFloatIntConversions(t *testing.T) {
	p, _ := prog()
	b := ir.NewFunc("conv", false)
	x := b.Param("x", ir.KindInt)
	b.Result(ir.KindInt)
	b.Block("entry")
	fv := b.Temp(ir.KindFloat)
	b.Unop(ir.OpIntToFloat, fv, ir.Var(x))
	b.Binop(ir.OpFMul, fv, ir.Var(fv), ir.ConstFloat(2.5))
	iv := b.Temp(ir.KindInt)
	b.Unop(ir.OpFloatToInt, iv, ir.Var(fv))
	b.Return(ir.Var(iv))
	f := b.Finish()

	m := New(arch.IA32Win(), p)
	out, err := call(m, f, 5)
	if err != nil {
		t.Fatal(err)
	}
	if out.Value != 12 { // 5 * 2.5 = 12.5 truncated
		t.Fatalf("got %d, want 12", out.Value)
	}
}

func TestFloatCompareBranch(t *testing.T) {
	p, _ := prog()
	b := ir.NewFunc("fcmp", false)
	x := b.Param("x", ir.KindFloat)
	b.Result(ir.KindInt)
	entry := b.Block("entry")
	lt := b.DeclareBlock("lt")
	ge := b.DeclareBlock("ge")
	b.SetBlock(entry)
	b.If(ir.CondLT, ir.Var(x), ir.ConstFloat(1.5), lt, ge)
	b.SetBlock(lt)
	b.Return(ir.ConstInt(1))
	b.SetBlock(ge)
	b.Return(ir.ConstInt(0))
	f := b.Finish()

	m := New(arch.IA32Win(), p)
	for _, tc := range []struct {
		x    float64
		want int64
	}{{1.0, 1}, {1.5, 0}, {2.0, 0}, {-3.0, 1}} {
		out, err := call(m, f, int64(math.Float64bits(tc.x)))
		if err != nil {
			t.Fatal(err)
		}
		if out.Value != tc.want {
			t.Fatalf("x=%g: got %d, want %d", tc.x, out.Value, tc.want)
		}
	}
}

func TestStepLimit(t *testing.T) {
	p, _ := prog()
	b := ir.NewFunc("spin", false)
	b.Result(ir.KindInt)
	entry := b.Block("entry")
	b.SetBlock(entry)
	loop := b.DeclareBlock("loop")
	b.Jump(loop)
	b.SetBlock(loop)
	x := b.Temp(ir.KindInt)
	b.Binop(ir.OpAdd, x, ir.Var(x), ir.ConstInt(1))
	b.Jump(loop)
	f := b.Finish()

	m := New(arch.IA32Win(), p)
	m.MaxSteps = 10_000
	_, err := call(m, f)
	if !errors.Is(err, ErrStepLimit) {
		t.Fatalf("err = %v, want ErrStepLimit", err)
	}
	// The wrapped error must say which function ran away and how far it got.
	if !strings.Contains(err.Error(), "spin") || !strings.Contains(err.Error(), "10000") {
		t.Fatalf("err = %v, want function name and step count", err)
	}
}

func TestCallDepthLimit(t *testing.T) {
	p, _ := prog()
	b := ir.NewFunc("rec", false)
	n := b.Param("n", ir.KindInt)
	b.Result(ir.KindInt)
	meth := p.AddMethod(nil, "rec", nil, false)
	b.Block("entry")
	v := b.Temp(ir.KindInt)
	b.CallStatic(v, meth, ir.Var(n))
	b.Return(ir.Var(v))
	f := b.Finish()
	meth.Fn = f

	m := New(arch.IA32Win(), p)
	if _, err := call(m, f, 1); err == nil {
		t.Fatal("unbounded recursion did not error")
	}
}

func TestExceptionPropagatesThroughCallToCallerHandler(t *testing.T) {
	p, c := prog()
	// callee dereferences null.
	cb := ir.NewFunc("boom", false)
	a := cb.Param("a", ir.KindRef)
	cb.Result(ir.KindInt)
	cb.Block("entry")
	v := cb.Temp(ir.KindInt)
	cb.GetField(v, a, c.FieldByName("f"))
	cb.Return(ir.Var(v))
	meth := p.AddMethod(nil, "boom", cb.Finish(), false)

	// caller invokes it inside a try region.
	b := ir.NewFunc("caller", false)
	b.Result(ir.KindInt)
	entry := b.Block("entry")
	handler := b.DeclareBlock("handler")
	exc := b.Local("exc", ir.KindRef)
	b.SetBlock(entry)
	r := b.Temp(ir.KindInt)
	b.CallStatic(r, meth, ir.Null())
	b.Return(ir.Var(r))
	b.SetBlock(handler)
	b.Return(ir.ConstInt(-1))
	f := b.F
	region := f.NewRegion(handler, exc)
	entry.Try = region.ID
	f.RecomputeEdges()
	if err := ir.Validate(f); err != nil {
		t.Fatal(err)
	}

	m := New(arch.IA32Win(), p)
	out, err := call(m, f)
	if err != nil {
		t.Fatal(err)
	}
	if out.Exc != rt.ExcNone || out.Value != -1 {
		t.Fatalf("out = %+v, want handler result -1", out)
	}
}

func TestNegativeArraySizeThrows(t *testing.T) {
	p, _ := prog()
	b := ir.NewFunc("neg", false)
	n := b.Param("n", ir.KindInt)
	b.Result(ir.KindInt)
	b.Block("entry")
	a := b.Temp(ir.KindRef)
	b.NewArray(a, ir.Var(n))
	ln := b.Temp(ir.KindInt)
	b.ArrayLength(ln, a)
	b.Return(ir.Var(ln))
	f := b.Finish()

	m := New(arch.IA32Win(), p)
	out, err := call(m, f, -4)
	if err != nil {
		t.Fatal(err)
	}
	if out.Exc != rt.ExcNegativeArraySize {
		t.Fatalf("exc = %v, want NegativeArraySizeException", out.Exc)
	}
	out, err = call(m, f, 4)
	if err != nil || out.Value != 4 {
		t.Fatalf("length = %+v err=%v, want 4", out, err)
	}
}

func TestThrowInstruction(t *testing.T) {
	p, _ := prog()
	b := ir.NewFunc("thr", false)
	b.Result(ir.KindInt)
	b.Block("entry")
	// Allocate an AIOOBE-shaped exception via a failing boundcheck caught
	// nowhere: simpler — raise via boundcheck.
	b.Emit(&ir.Instr{Op: ir.OpBoundCheck, Dst: ir.NoVar, Args: []ir.Operand{ir.ConstInt(5), ir.ConstInt(2)}})
	b.Return(ir.ConstInt(0))
	f := b.Finish()

	m := New(arch.IA32Win(), p)
	out, err := call(m, f)
	if err != nil {
		t.Fatal(err)
	}
	if out.Exc != rt.ExcArrayIndexOutOfBounds || out.ExcRef == 0 {
		t.Fatalf("out = %+v, want escaped AIOOBE with object", out)
	}
}

func TestSpeculatedNullReadYieldsZeroOnAIX(t *testing.T) {
	p, c := prog()
	b := ir.NewFunc("spec", false)
	a := b.Param("a", ir.KindRef)
	b.Result(ir.KindInt)
	b.Block("entry")
	v := b.Temp(ir.KindInt)
	ld := b.Emit(&ir.Instr{Op: ir.OpGetField, Dst: v, Field: c.FieldByName("f"), Args: []ir.Operand{ir.Var(a)}})
	ld.Speculated = true
	b.Return(ir.Var(v))
	f := b.Finish()

	m := New(arch.PPCAIX(), p)
	out, err := call(m, f, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.Exc != rt.ExcNone || out.Value != 0 {
		t.Fatalf("speculated null read = %+v, want silent 0", out)
	}
}

func TestCyclesAccumulateAcrossCalls(t *testing.T) {
	p, c := prog()
	f := makeGetF(c)
	m := New(arch.IA32Win(), p)
	obj := m.Heap.AllocObject(c)
	if _, err := call(m, f, obj); err != nil {
		t.Fatal(err)
	}
	first := m.Cycles
	if _, err := call(m, f, obj); err != nil {
		t.Fatal(err)
	}
	if m.Cycles != 2*first {
		t.Fatalf("cycles = %d after two identical runs, want %d", m.Cycles, 2*first)
	}
}
