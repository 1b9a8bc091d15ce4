package machine

import (
	"math"
	"testing"

	"trapnull/internal/arch"
	"trapnull/internal/ir"
	"trapnull/internal/nullcheck"
	"trapnull/internal/rt"
)

func prog() (*ir.Program, *ir.Class) {
	p := ir.NewProgram("t")
	c := p.NewClass("C",
		&ir.Field{Name: "f", Kind: ir.KindInt},
		&ir.Field{Name: "g", Kind: ir.KindInt},
	)
	return p, c
}

// makeGetF builds: int getf(a) { return a.f } with the builder's split form.
func makeGetF(c *ir.Class) *ir.Func {
	b := ir.NewFunc("getf", false)
	a := b.Param("a", ir.KindRef)
	b.Result(ir.KindInt)
	b.Block("entry")
	v := b.Temp(ir.KindInt)
	b.GetField(v, a, c.FieldByName("f"))
	b.Return(ir.Var(v))
	return b.Finish()
}

func TestArithmeticAndControlFlow(t *testing.T) {
	b := ir.NewFunc("sum", false)
	n := b.Param("n", ir.KindInt)
	b.Result(ir.KindInt)
	i := b.Local("i", ir.KindInt)
	s := b.Local("s", ir.KindInt)
	entry := b.Block("entry")
	body := b.DeclareBlock("body")
	exit := b.DeclareBlock("exit")
	b.SetBlock(entry)
	b.Move(i, ir.ConstInt(0))
	b.Move(s, ir.ConstInt(0))
	b.Jump(body)
	b.SetBlock(body)
	b.Binop(ir.OpAdd, s, ir.Var(s), ir.Var(i))
	b.Binop(ir.OpAdd, i, ir.Var(i), ir.ConstInt(1))
	b.If(ir.CondLT, ir.Var(i), ir.Var(n), body, exit)
	b.SetBlock(exit)
	b.Return(ir.Var(s))
	f := b.Finish()

	p, _ := prog()
	m := New(arch.IA32Win(), p)
	out, err := call(m, f, 10)
	if err != nil {
		t.Fatal(err)
	}
	if out.Exc != rt.ExcNone || out.Value != 45 {
		t.Fatalf("sum(10) = %+v, want 45", out)
	}
	if m.Cycles <= 0 || m.Stats.Instrs <= 0 {
		t.Fatalf("no accounting: cycles=%d instrs=%d", m.Cycles, m.Stats.Instrs)
	}
}

func TestFieldRoundTrip(t *testing.T) {
	p, c := prog()
	b := ir.NewFunc("rt", false)
	b.Result(ir.KindInt)
	b.Block("entry")
	o := b.Temp(ir.KindRef)
	b.New(o, c)
	b.PutField(o, c.FieldByName("f"), ir.ConstInt(41))
	v := b.Temp(ir.KindInt)
	b.GetField(v, o, c.FieldByName("f"))
	r := b.Temp(ir.KindInt)
	b.Binop(ir.OpAdd, r, ir.Var(v), ir.ConstInt(1))
	b.Return(ir.Var(r))
	f := b.Finish()

	m := New(arch.IA32Win(), p)
	out, err := call(m, f)
	if err != nil {
		t.Fatal(err)
	}
	if out.Value != 42 {
		t.Fatalf("got %d, want 42", out.Value)
	}
}

func TestArrayRoundTripAndBounds(t *testing.T) {
	p, _ := prog()
	b := ir.NewFunc("arr", false)
	n := b.Param("n", ir.KindInt)
	idx := b.Param("i", ir.KindInt)
	b.Result(ir.KindInt)
	b.Block("entry")
	a := b.Temp(ir.KindRef)
	b.NewArray(a, ir.Var(n))
	b.ArrayStore(a, ir.Var(idx), ir.ConstInt(7))
	v := b.Temp(ir.KindInt)
	b.ArrayLoad(v, a, ir.Var(idx))
	b.Return(ir.Var(v))
	f := b.Finish()

	m := New(arch.IA32Win(), p)
	out, err := call(m, f, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if out.Value != 7 {
		t.Fatalf("a[3] = %d, want 7", out.Value)
	}

	out, err = call(m, f, 5, 9)
	if err != nil {
		t.Fatal(err)
	}
	if out.Exc != rt.ExcArrayIndexOutOfBounds {
		t.Fatalf("exc = %v, want AIOOBE", out.Exc)
	}
	out, err = call(m, f, 5, -1)
	if err != nil {
		t.Fatal(err)
	}
	if out.Exc != rt.ExcArrayIndexOutOfBounds {
		t.Fatalf("exc = %v, want AIOOBE for negative index", out.Exc)
	}
}

func TestExplicitNullCheckThrowsNPE(t *testing.T) {
	p, c := prog()
	f := makeGetF(c)
	m := New(arch.IA32Win(), p)
	out, err := call(m, f, 0) // null argument
	if err != nil {
		t.Fatal(err)
	}
	if out.Exc != rt.ExcNullPointer {
		t.Fatalf("exc = %v, want NPE", out.Exc)
	}
	if m.Stats.TrapsTaken != 0 {
		t.Fatal("explicit check must not count as a hardware trap")
	}
	if m.Stats.ThrownSoftware == 0 {
		t.Fatal("software throw not counted")
	}
}

func TestImplicitNullCheckTrapsToNPE(t *testing.T) {
	p, c := prog()
	f := makeGetF(c)
	nullcheck.Phase2(f, arch.IA32Win())
	if f.CountOp(ir.OpNullCheck) != 0 {
		t.Fatalf("setup: phase 2 left explicit checks:\n%s", f)
	}
	m := New(arch.IA32Win(), p)
	out, err := call(m, f, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.Exc != rt.ExcNullPointer {
		t.Fatalf("exc = %v, want NPE via trap", out.Exc)
	}
	if m.Stats.TrapsTaken != 1 {
		t.Fatalf("traps = %d, want 1", m.Stats.TrapsTaken)
	}
}

func TestUnexpectedTrapIsSimulationError(t *testing.T) {
	p, c := prog()
	// An unguarded, unmarked dereference of null: a real VM would crash.
	b := ir.NewFunc("bad", false)
	a := b.Param("a", ir.KindRef)
	b.Result(ir.KindInt)
	b.Block("entry")
	v := b.Temp(ir.KindInt)
	b.Emit(&ir.Instr{Op: ir.OpGetField, Dst: v, Field: c.FieldByName("f"), Args: []ir.Operand{ir.Var(a)}})
	b.Return(ir.Var(v))
	f := b.Finish()

	m := New(arch.IA32Win(), p)
	if _, err := call(m, f, 0); err == nil {
		t.Fatal("expected simulation error for unexpected trap")
	}
}

func TestAIXMissedNPEOnNullRead(t *testing.T) {
	p, c := prog()
	f := makeGetF(c)
	// Illegal Implicit: run the Intel phase 2 but execute on AIX, where
	// reads do not trap. The read silently yields zero — the paper's
	// spec-violating configuration.
	nullcheck.Phase2(f, arch.IA32Win())
	m := New(arch.PPCAIX(), p)
	out, err := call(m, f, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.Exc != rt.ExcNone {
		t.Fatalf("exc = %v, want silent missed NPE", out.Exc)
	}
	if out.Value != 0 {
		t.Fatalf("null read = %d, want 0", out.Value)
	}
}

func TestAIXWriteTrapWorks(t *testing.T) {
	p, c := prog()
	b := ir.NewFunc("put", false)
	a := b.Param("a", ir.KindRef)
	b.Block("entry")
	b.PutField(a, c.FieldByName("f"), ir.ConstInt(1))
	b.ReturnVoid()
	f := b.Finish()

	st := nullcheck.Phase2(f, arch.PPCAIX())
	if st.Implicit != 1 {
		t.Fatalf("setup: write not implicit on AIX:\n%s", f)
	}
	m := New(arch.PPCAIX(), p)
	out, err := call(m, f, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.Exc != rt.ExcNullPointer || m.Stats.TrapsTaken != 1 {
		t.Fatalf("out=%+v traps=%d, want NPE via trap", out, m.Stats.TrapsTaken)
	}
}

func TestBigOffsetNullReadHitsGarbageNotHeap(t *testing.T) {
	p := ir.NewProgram("t")
	mArch := arch.IA32Win()
	c := p.NewClass("Big",
		&ir.Field{Name: "far", Kind: ir.KindInt, Offset: int32(mArch.TrapAreaBytes) + 64},
	)
	b := ir.NewFunc("big", false)
	a := b.Param("a", ir.KindRef)
	b.Result(ir.KindInt)
	b.Block("entry")
	v := b.Temp(ir.KindInt)
	// Unguarded big-offset read of null: must NOT trap and must not read
	// live heap (the gap below HeapBase absorbs it).
	b.Emit(&ir.Instr{Op: ir.OpGetField, Dst: v, Field: c.FieldByName("far"), Args: []ir.Operand{ir.Var(a)}})
	b.Return(ir.Var(v))
	f := b.Finish()

	m := New(mArch, p)
	// Allocate something so the heap is non-empty.
	m.Heap.AllocArray(16)
	out, err := call(m, f, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.Exc != rt.ExcNone || out.Value != 0 {
		t.Fatalf("big-offset null read: %+v, want silent 0", out)
	}
}

func TestDivByZeroThrows(t *testing.T) {
	p, _ := prog()
	b := ir.NewFunc("div", false)
	x := b.Param("x", ir.KindInt)
	y := b.Param("y", ir.KindInt)
	b.Result(ir.KindInt)
	b.Block("entry")
	v := b.Temp(ir.KindInt)
	b.Binop(ir.OpDiv, v, ir.Var(x), ir.Var(y))
	b.Return(ir.Var(v))
	f := b.Finish()

	m := New(arch.IA32Win(), p)
	out, err := call(m, f, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.Exc != rt.ExcArithmetic {
		t.Fatalf("exc = %v, want ArithmeticException", out.Exc)
	}
	out, err = call(m, f, 10, 3)
	if err != nil || out.Value != 3 {
		t.Fatalf("10/3 = %+v, %v", out, err)
	}
}

func TestTryCatchHandler(t *testing.T) {
	p, c := prog()
	b := ir.NewFunc("catch", false)
	a := b.Param("a", ir.KindRef)
	b.Result(ir.KindInt)
	entry := b.Block("entry")
	handler := b.DeclareBlock("handler")
	exc := b.Local("exc", ir.KindRef)

	b.SetBlock(entry)
	v := b.Temp(ir.KindInt)
	b.GetField(v, a, c.FieldByName("f"))
	b.Return(ir.Var(v))

	b.SetBlock(handler)
	b.Return(ir.ConstInt(-99))

	f := b.F
	r := f.NewRegion(handler, exc)
	entry.Try = r.ID
	f.RecomputeEdges()
	if err := ir.Validate(f); err != nil {
		t.Fatal(err)
	}

	m := New(arch.IA32Win(), p)
	out, err := call(m, f, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.Exc != rt.ExcNone || out.Value != -99 {
		t.Fatalf("handler result = %+v, want -99", out)
	}
}

func TestVirtualCallDispatchAndInlineEquivalence(t *testing.T) {
	p, c := prog()
	cb := ir.NewFunc("getF", true)
	this := cb.Param("this", ir.KindRef)
	cb.Result(ir.KindInt)
	cb.Block("entry")
	v := cb.Temp(ir.KindInt)
	cb.GetField(v, this, c.FieldByName("f"))
	cb.Return(ir.Var(v))
	meth := p.AddMethod(c, "getF", cb.Finish(), true)

	b := ir.NewFunc("caller", false)
	b.Result(ir.KindInt)
	b.Block("entry")
	o := b.Temp(ir.KindRef)
	b.New(o, c)
	b.PutField(o, c.FieldByName("f"), ir.ConstInt(123))
	r := b.Temp(ir.KindInt)
	b.CallVirtual(r, meth, o)
	b.Return(ir.Var(r))
	f := b.Finish()

	m := New(arch.IA32Win(), p)
	out, err := call(m, f)
	if err != nil {
		t.Fatal(err)
	}
	if out.Value != 123 {
		t.Fatalf("virtual call = %d, want 123", out.Value)
	}
	if m.Stats.Calls != 1 {
		t.Fatalf("calls = %d, want 1", m.Stats.Calls)
	}
}

func TestMathOps(t *testing.T) {
	p, _ := prog()
	b := ir.NewFunc("m", false)
	x := b.Param("x", ir.KindFloat)
	b.Result(ir.KindFloat)
	b.Block("entry")
	v := b.Temp(ir.KindFloat)
	b.Math(ir.MathSqrt, v, ir.Var(x))
	b.Return(ir.Var(v))
	f := b.Finish()

	m := New(arch.IA32Win(), p)
	out, err := call(m, f, fbits(9.0))
	if err != nil {
		t.Fatal(err)
	}
	if got := bitsToF(out.Value); got != 3.0 {
		t.Fatalf("sqrt(9) = %g, want 3", got)
	}
}

func bitsToF(v int64) float64 {
	return math.Float64frombits(uint64(v))
}

func TestCheaperWithFewerChecks(t *testing.T) {
	// The same source costs fewer cycles after the null check optimization:
	// the foundation of every benchmark table.
	p, c := prog()
	build := func() *ir.Func {
		b := ir.NewFunc("hot", false)
		a := b.Param("a", ir.KindRef)
		n := b.Param("n", ir.KindInt)
		b.Result(ir.KindInt)
		i := b.Local("i", ir.KindInt)
		s := b.Local("s", ir.KindInt)
		entry := b.Block("entry")
		body := b.DeclareBlock("body")
		exit := b.DeclareBlock("exit")
		b.SetBlock(entry)
		b.Move(i, ir.ConstInt(0))
		b.Move(s, ir.ConstInt(0))
		b.Jump(body)
		b.SetBlock(body)
		v := b.Temp(ir.KindInt)
		b.GetField(v, a, c.FieldByName("f"))
		b.Binop(ir.OpAdd, s, ir.Var(s), ir.Var(v))
		b.Binop(ir.OpAdd, i, ir.Var(i), ir.ConstInt(1))
		b.If(ir.CondLT, ir.Var(i), ir.Var(n), body, exit)
		b.SetBlock(exit)
		b.Return(ir.Var(s))
		return b.Finish()
	}

	mkObj := func(m *Machine) int64 {
		o := m.Heap.AllocObject(c)
		m.Heap.Store(o+int64(c.FieldByName("f").Offset), 2)
		return o
	}

	baseline := build()
	mb := New(arch.IA32Win(), p)
	ob := mkObj(mb)
	outB, err := call(mb, baseline, ob, 1000)
	if err != nil {
		t.Fatal(err)
	}

	optimized := build()
	nullcheck.Phase1(optimized)
	nullcheck.Phase2(optimized, arch.IA32Win())
	mo := New(arch.IA32Win(), p)
	oo := mkObj(mo)
	outO, err := call(mo, optimized, oo, 1000)
	if err != nil {
		t.Fatal(err)
	}

	if outB.Value != outO.Value {
		t.Fatalf("results differ: %d vs %d", outB.Value, outO.Value)
	}
	if mo.Cycles >= mb.Cycles {
		t.Fatalf("optimization did not pay: %d >= %d cycles", mo.Cycles, mb.Cycles)
	}
	if mo.Stats.ExplicitChecks >= mb.Stats.ExplicitChecks {
		t.Fatalf("explicit checks not reduced: %d >= %d",
			mo.Stats.ExplicitChecks, mb.Stats.ExplicitChecks)
	}
}
