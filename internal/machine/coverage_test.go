package machine

import (
	"math"
	"testing"

	"trapnull/internal/arch"
	"trapnull/internal/ir"
	"trapnull/internal/rt"
)

func TestAllMathFns(t *testing.T) {
	p, _ := prog()
	for _, tc := range []struct {
		fn   ir.MathFn
		x    float64
		want float64
	}{
		{ir.MathExp, 0, 1},
		{ir.MathLog, 1, 0},
		{ir.MathSin, 0, 0},
		{ir.MathCos, 0, 1},
		{ir.MathSqrt, 16, 4},
		{ir.MathAbs, -2.5, 2.5},
	} {
		b := ir.NewFunc("m", false)
		x := b.Param("x", ir.KindFloat)
		b.Result(ir.KindFloat)
		b.Block("entry")
		v := b.Temp(ir.KindFloat)
		b.Math(tc.fn, v, ir.Var(x))
		b.Return(ir.Var(v))
		f := b.Finish()

		m := New(arch.IA32Win(), p)
		out, err := call(m, f, int64(math.Float64bits(tc.x)))
		if err != nil {
			t.Fatalf("%v: %v", tc.fn, err)
		}
		if got := math.Float64frombits(uint64(out.Value)); got != tc.want {
			t.Fatalf("%v(%g) = %g, want %g", tc.fn, tc.x, got, tc.want)
		}
	}
}

func TestAllIntConditions(t *testing.T) {
	p, _ := prog()
	for _, tc := range []struct {
		cond    ir.Cond
		a, b    int64
		wantHit bool
	}{
		{ir.CondEQ, 3, 3, true}, {ir.CondEQ, 3, 4, false},
		{ir.CondNE, 3, 4, true}, {ir.CondNE, 3, 3, false},
		{ir.CondLT, 2, 3, true}, {ir.CondLT, 3, 3, false},
		{ir.CondLE, 3, 3, true}, {ir.CondLE, 4, 3, false},
		{ir.CondGT, 4, 3, true}, {ir.CondGT, 3, 3, false},
		{ir.CondGE, 3, 3, true}, {ir.CondGE, 2, 3, false},
	} {
		b := ir.NewFunc("c", false)
		x := b.Param("x", ir.KindInt)
		y := b.Param("y", ir.KindInt)
		b.Result(ir.KindInt)
		entry := b.Block("entry")
		hit := b.DeclareBlock("hit")
		miss := b.DeclareBlock("miss")
		b.SetBlock(entry)
		b.If(tc.cond, ir.Var(x), ir.Var(y), hit, miss)
		b.SetBlock(hit)
		b.Return(ir.ConstInt(1))
		b.SetBlock(miss)
		b.Return(ir.ConstInt(0))
		f := b.Finish()

		m := New(arch.IA32Win(), p)
		out, err := call(m, f, tc.a, tc.b)
		if err != nil {
			t.Fatal(err)
		}
		want := int64(0)
		if tc.wantHit {
			want = 1
		}
		if out.Value != want {
			t.Fatalf("%d %s %d -> %d, want %d", tc.a, tc.cond, tc.b, out.Value, want)
		}
	}
}

func TestAllFloatConditionsViaCmp(t *testing.T) {
	p, _ := prog()
	for _, tc := range []struct {
		cond ir.Cond
		a, b float64
		want int64
	}{
		{ir.CondEQ, 1.5, 1.5, 1}, {ir.CondNE, 1.5, 2.5, 1},
		{ir.CondLT, 1.0, 1.5, 1}, {ir.CondLE, 1.5, 1.5, 1},
		{ir.CondGT, 2.0, 1.5, 1}, {ir.CondGE, 1.5, 1.5, 1},
		{ir.CondGT, 1.0, 1.5, 0}, {ir.CondEQ, 1.0, 1.5, 0},
	} {
		b := ir.NewFunc("fc", false)
		x := b.Param("x", ir.KindFloat)
		y := b.Param("y", ir.KindFloat)
		b.Result(ir.KindInt)
		b.Block("entry")
		v := b.Temp(ir.KindInt)
		b.Cmp(v, tc.cond, ir.Var(x), ir.Var(y))
		b.Return(ir.Var(v))
		f := b.Finish()

		m := New(arch.IA32Win(), p)
		out, err := call(m, f, int64(math.Float64bits(tc.a)), int64(math.Float64bits(tc.b)))
		if err != nil {
			t.Fatal(err)
		}
		if out.Value != tc.want {
			t.Fatalf("%g %s %g = %d, want %d", tc.a, tc.cond, tc.b, out.Value, tc.want)
		}
	}
}

func TestCallArgCountMismatch(t *testing.T) {
	p, c := prog()
	f := makeGetF(c)
	m := New(arch.IA32Win(), p)
	if _, err := call(m, f); err == nil {
		t.Fatal("expected arg-count error")
	}
	if _, err := call(m, f, 1, 2); err == nil {
		t.Fatal("expected arg-count error")
	}
}

func TestIntrinsicCallWithoutBody(t *testing.T) {
	p, _ := prog()
	exp := p.AddMethod(nil, "Math.exp", nil, false)
	exp.Intrinsic = ir.MathExp

	b := ir.NewFunc("usesexp", false)
	x := b.Param("x", ir.KindFloat)
	b.Result(ir.KindFloat)
	b.Block("entry")
	v := b.Temp(ir.KindFloat)
	b.CallStatic(v, exp, ir.Var(x))
	b.Return(ir.Var(v))
	f := b.Finish()

	m := New(arch.PPCAIX(), p) // stays a call on PPC; runtime implements it
	out, err := call(m, f, int64(math.Float64bits(1.0)))
	if err != nil {
		t.Fatal(err)
	}
	if got := math.Float64frombits(uint64(out.Value)); math.Abs(got-math.E) > 1e-12 {
		t.Fatalf("exp(1) = %g", got)
	}
}

func TestBodylessNonIntrinsicCallErrors(t *testing.T) {
	p, _ := prog()
	ghost := p.AddMethod(nil, "ghost", nil, false)
	b := ir.NewFunc("callsghost", false)
	b.Result(ir.KindInt)
	b.Block("entry")
	v := b.Temp(ir.KindInt)
	b.CallStatic(v, ghost)
	b.Return(ir.Var(v))
	f := b.Finish()

	m := New(arch.IA32Win(), p)
	if _, err := call(m, f); err == nil {
		t.Fatal("expected bodyless-method error")
	}
}

func TestNullArrayStoreTrapsOnWriteArchs(t *testing.T) {
	p, _ := prog()
	b := ir.NewFunc("nullstore", false)
	a := b.Param("a", ir.KindRef)
	b.Block("entry")
	// Raw unguarded store to a[0] of a null array: address 8 is a trap
	// candidate; unmarked -> simulation error on trapping models.
	b.Emit(&ir.Instr{Op: ir.OpArrayStore, Dst: ir.NoVar,
		Args: []ir.Operand{ir.Var(a), ir.ConstInt(0), ir.ConstInt(9)}})
	b.ReturnVoid()
	f := b.Finish()

	m := New(arch.IA32Win(), p)
	if _, err := call(m, f, 0); err == nil {
		t.Fatal("unguarded null store should be a simulation error")
	}

	// Marked as exception site it becomes a precise NPE.
	b2 := ir.NewFunc("nullstore2", false)
	a2 := b2.Param("a", ir.KindRef)
	b2.Block("entry")
	st := b2.Emit(&ir.Instr{Op: ir.OpArrayStore, Dst: ir.NoVar,
		Args: []ir.Operand{ir.Var(a2), ir.ConstInt(0), ir.ConstInt(9)}})
	st.ExcSite = true
	st.ExcVar = a2
	b2.ReturnVoid()
	f2 := b2.Finish()
	m2 := New(arch.IA32Win(), p)
	out, err := call(m2, f2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.Exc != rt.ExcNullPointer {
		t.Fatalf("exc = %v, want NPE", out.Exc)
	}
}

func TestGarbageZoneWriteVanishes(t *testing.T) {
	p, c := prog()
	mArch := arch.IA32Win()
	b := ir.NewFunc("gw", false)
	a := b.Param("a", ir.KindRef)
	b.Result(ir.KindInt)
	b.Block("entry")
	// Write through null at a big offset: lands in the unprotected gap.
	big := &ir.Field{Name: "far", Kind: ir.KindInt, Offset: int32(mArch.TrapAreaBytes) + 128, Class: c}
	b.Emit(&ir.Instr{Op: ir.OpPutField, Dst: ir.NoVar, Field: big,
		Args: []ir.Operand{ir.Var(a), ir.ConstInt(1)}})
	b.Return(ir.ConstInt(0))
	f := b.Finish()

	m := New(mArch, p)
	obj := m.Heap.AllocObject(c)
	before, _ := m.Heap.Peek(obj)
	out, err := call(m, f, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.Exc != rt.ExcNone {
		t.Fatalf("exc = %v", out.Exc)
	}
	if after, _ := m.Heap.Peek(obj); after != before {
		t.Fatal("garbage-zone write corrupted the heap")
	}
}

func TestInstanceOfSemantics(t *testing.T) {
	p, c := prog()
	other := p.NewClass("Other", &ir.Field{Name: "z", Kind: ir.KindInt})
	b := ir.NewFunc("iof", false)
	a := b.Param("a", ir.KindRef)
	b.Result(ir.KindInt)
	b.Block("entry")
	v := b.Temp(ir.KindInt)
	b.InstanceOf(v, a, c)
	b.Return(ir.Var(v))
	f := b.Finish()

	m := New(arch.IA32Win(), p)
	objC := m.Heap.AllocObject(c)
	objO := m.Heap.AllocObject(other)
	for _, tc := range []struct {
		ref  int64
		want int64
	}{{objC, 1}, {objO, 0}, {0, 0}} {
		out, err := call(m, f, tc.ref)
		if err != nil {
			t.Fatal(err)
		}
		if out.Value != tc.want {
			t.Fatalf("instanceof(%#x) = %d, want %d", tc.ref, out.Value, tc.want)
		}
	}
}
