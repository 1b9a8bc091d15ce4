package opt

import (
	"testing"

	"trapnull/internal/arch"
	"trapnull/internal/ir"
	"trapnull/internal/nullcheck"
)

func testClass() (*ir.Program, *ir.Class) {
	p := ir.NewProgram("t")
	c := p.NewClass("C",
		&ir.Field{Name: "f", Kind: ir.KindInt},
		&ir.Field{Name: "g", Kind: ir.KindInt},
	)
	return p, c
}

func TestCopyPropRewritesUses(t *testing.T) {
	b := ir.NewFunc("cp", false)
	x := b.Param("x", ir.KindInt)
	b.Result(ir.KindInt)
	b.Block("entry")
	y := b.Temp(ir.KindInt)
	z := b.Temp(ir.KindInt)
	b.Move(y, ir.Var(x))
	b.Binop(ir.OpAdd, z, ir.Var(y), ir.ConstInt(1))
	b.Return(ir.Var(z))
	f := b.Finish()

	if n := CopyProp(f); n != 1 {
		t.Fatalf("rewrote %d operands, want 1", n)
	}
	add := f.Entry.Instrs[1]
	if !add.Args[0].IsVar() || add.Args[0].Var != x {
		t.Fatalf("add operand not propagated: %s", add)
	}
}

func TestCopyPropStopsAtRedefinition(t *testing.T) {
	b := ir.NewFunc("cp2", false)
	x := b.Param("x", ir.KindInt)
	b.Result(ir.KindInt)
	b.Block("entry")
	y := b.Temp(ir.KindInt)
	z := b.Temp(ir.KindInt)
	b.Move(y, ir.Var(x))
	b.Binop(ir.OpAdd, x, ir.Var(x), ir.ConstInt(1)) // x redefined
	b.Binop(ir.OpAdd, z, ir.Var(y), ir.ConstInt(1)) // must keep y
	b.Return(ir.Var(z))
	f := b.Finish()

	CopyProp(f)
	add2 := f.Entry.Instrs[2]
	if !add2.Args[0].IsVar() || add2.Args[0].Var != y {
		t.Fatalf("copy propagated past redefinition: %s", add2)
	}
}

func TestCopyPropConstant(t *testing.T) {
	b := ir.NewFunc("cp3", false)
	b.Result(ir.KindInt)
	b.Block("entry")
	y := b.Temp(ir.KindInt)
	z := b.Temp(ir.KindInt)
	b.Move(y, ir.ConstInt(42))
	b.Binop(ir.OpAdd, z, ir.Var(y), ir.ConstInt(1))
	b.Return(ir.Var(z))
	f := b.Finish()

	CopyProp(f)
	add := f.Entry.Instrs[1]
	if add.Args[0].Kind != ir.OperConstInt || add.Args[0].Int != 42 {
		t.Fatalf("constant not propagated: %s", add)
	}
}

func TestCopyPropKeepsDerefBasesAsVars(t *testing.T) {
	_, c := testClass()
	b := ir.NewFunc("cp4", false)
	b.Result(ir.KindInt)
	b.Block("entry")
	a := b.Temp(ir.KindRef)
	b.Move(a, ir.Null())
	t1 := b.Temp(ir.KindInt)
	b.GetField(t1, a, c.FieldByName("f"))
	b.Return(ir.Var(t1))
	f := b.Finish()

	CopyProp(f)
	for _, in := range f.Entry.Instrs {
		if in.Op == ir.OpNullCheck && !in.Args[0].IsVar() {
			t.Fatalf("null check target became a constant: %s", in)
		}
		if in.Op == ir.OpGetField && !in.Args[0].IsVar() {
			t.Fatalf("getfield base became a constant: %s", in)
		}
	}
}

func TestDCERemovesDeadArith(t *testing.T) {
	b := ir.NewFunc("dce", false)
	x := b.Param("x", ir.KindInt)
	b.Result(ir.KindInt)
	b.Block("entry")
	dead := b.Temp(ir.KindInt)
	b.Binop(ir.OpMul, dead, ir.Var(x), ir.ConstInt(3))
	b.Return(ir.Var(x))
	f := b.Finish()

	if n := DCE(f); n != 1 {
		t.Fatalf("removed %d, want 1:\n%s", n, f)
	}
}

func TestDCEKeepsStoresAndExcSites(t *testing.T) {
	_, c := testClass()
	b := ir.NewFunc("dce2", false)
	a := b.Param("a", ir.KindRef)
	b.Result(ir.KindInt)
	b.Block("entry")
	b.PutField(a, c.FieldByName("f"), ir.ConstInt(1))
	deadLoad := b.Temp(ir.KindInt)
	g := b.GetField(deadLoad, a, c.FieldByName("g"))
	g.ExcSite = true // pretend phase 2 made this the exception site
	g.ExcVar = a
	b.Return(ir.ConstInt(0))
	f := b.Finish()

	DCE(f)
	if f.CountOp(ir.OpPutField) != 1 {
		t.Fatalf("store removed:\n%s", f)
	}
	if f.CountOp(ir.OpGetField) != 1 {
		t.Fatalf("exception-site load removed:\n%s", f)
	}
}

func TestDCERemovesDeadGuardedLoad(t *testing.T) {
	_, c := testClass()
	b := ir.NewFunc("dce3", false)
	a := b.Param("a", ir.KindRef)
	b.Result(ir.KindInt)
	b.Block("entry")
	deadLoad := b.Temp(ir.KindInt)
	b.GetField(deadLoad, a, c.FieldByName("g"))
	b.Return(ir.ConstInt(0))
	f := b.Finish()

	DCE(f)
	if f.CountOp(ir.OpGetField) != 0 {
		t.Fatalf("dead guarded load kept:\n%s", f)
	}
	// Its null check remains (it is not dead code — it throws).
	if f.CountOp(ir.OpNullCheck) != 1 {
		t.Fatalf("null check dropped by DCE:\n%s", f)
	}
}

func TestDCERemovesUnreachableBlocks(t *testing.T) {
	b := ir.NewFunc("dce4", false)
	b.Result(ir.KindInt)
	b.Block("entry")
	b.Return(ir.ConstInt(0))
	f := b.Finish()
	dead := f.NewBlock("dead")
	dead.Instrs = []*ir.Instr{{Op: ir.OpReturn, Dst: ir.NoVar, Args: []ir.Operand{ir.ConstInt(1)}}}
	f.RecomputeEdges()

	DCE(f)
	if len(f.Blocks) != 1 {
		t.Fatalf("unreachable block kept: %d blocks", len(f.Blocks))
	}
}

func TestBoundCheckElimSequential(t *testing.T) {
	b := ir.NewFunc("bce", false)
	b.Param("arr", ir.KindRef)
	i := b.Param("i", ir.KindInt)
	ln := b.Param("len", ir.KindInt)
	b.Result(ir.KindInt)
	b.Block("entry")
	b.Emit(&ir.Instr{Op: ir.OpBoundCheck, Dst: ir.NoVar, Args: []ir.Operand{ir.Var(i), ir.Var(ln)}})
	b.Emit(&ir.Instr{Op: ir.OpBoundCheck, Dst: ir.NoVar, Args: []ir.Operand{ir.Var(i), ir.Var(ln)}})
	b.Return(ir.ConstInt(0))
	f := b.Finish()

	if n := BoundCheckElim(f); n != 1 {
		t.Fatalf("removed %d, want 1:\n%s", n, f)
	}
}

func TestBoundCheckElimKilledByRedefinition(t *testing.T) {
	b := ir.NewFunc("bce2", false)
	i := b.Param("i", ir.KindInt)
	ln := b.Param("len", ir.KindInt)
	b.Result(ir.KindInt)
	b.Block("entry")
	b.Emit(&ir.Instr{Op: ir.OpBoundCheck, Dst: ir.NoVar, Args: []ir.Operand{ir.Var(i), ir.Var(ln)}})
	b.Binop(ir.OpAdd, i, ir.Var(i), ir.ConstInt(1))
	b.Emit(&ir.Instr{Op: ir.OpBoundCheck, Dst: ir.NoVar, Args: []ir.Operand{ir.Var(i), ir.Var(ln)}})
	b.Return(ir.ConstInt(0))
	f := b.Finish()

	if n := BoundCheckElim(f); n != 0 {
		t.Fatalf("removed %d, want 0 (index changed):\n%s", n, f)
	}
}

func TestBoundCheckElimAcrossMergeNeedsBothPaths(t *testing.T) {
	b := ir.NewFunc("bce3", false)
	i := b.Param("i", ir.KindInt)
	ln := b.Param("len", ir.KindInt)
	cond := b.Param("c", ir.KindInt)
	b.Result(ir.KindInt)
	entry := b.Block("entry")
	l := b.DeclareBlock("l")
	r := b.DeclareBlock("r")
	merge := b.DeclareBlock("m")
	b.SetBlock(entry)
	b.If(ir.CondNE, ir.Var(cond), ir.ConstInt(0), l, r)
	b.SetBlock(l)
	b.Emit(&ir.Instr{Op: ir.OpBoundCheck, Dst: ir.NoVar, Args: []ir.Operand{ir.Var(i), ir.Var(ln)}})
	b.Jump(merge)
	b.SetBlock(r)
	b.Jump(merge)
	b.SetBlock(merge)
	b.Emit(&ir.Instr{Op: ir.OpBoundCheck, Dst: ir.NoVar, Args: []ir.Operand{ir.Var(i), ir.Var(ln)}})
	b.Return(ir.ConstInt(0))
	f := b.Finish()

	if n := BoundCheckElim(f); n != 0 {
		t.Fatalf("removed %d, want 0 (one path unchecked):\n%s", n, f)
	}
}

// boundLoop builds a counted loop whose body holds copies bound checks of
// the same index and length, neither redefined in the loop.
func boundLoop(copies int) *ir.Func {
	b := ir.NewFunc("bceloop", false)
	i := b.Param("i", ir.KindInt)
	ln := b.Param("len", ir.KindInt)
	n := b.Param("n", ir.KindInt)
	b.Result(ir.KindInt)
	entry := b.Block("entry")
	body := b.DeclareBlock("body")
	exit := b.DeclareBlock("exit")
	j := b.Temp(ir.KindInt)
	b.SetBlock(entry)
	b.Move(j, ir.ConstInt(0))
	b.Jump(body)
	b.SetBlock(body)
	for range copies {
		b.Emit(&ir.Instr{Op: ir.OpBoundCheck, Dst: ir.NoVar, Args: []ir.Operand{ir.Var(i), ir.Var(ln)}})
	}
	b.Binop(ir.OpAdd, j, ir.Var(j), ir.ConstInt(1))
	b.If(ir.CondLT, ir.Var(j), ir.Var(n), body, exit)
	b.SetBlock(exit)
	b.Return(ir.ConstInt(0))
	return b.Finish()
}

// TestBoundCheckElimLoneCheckInLoopStays: the back edge carries the check
// around the loop, but the entry path reaches it unchecked, so a check whose
// key occurs once stays; a second identical check after it goes.
func TestBoundCheckElimLoneCheckInLoopStays(t *testing.T) {
	checks := func(f *ir.Func) int {
		n := 0
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpBoundCheck {
					n++
				}
			}
		}
		return n
	}
	for _, tc := range []struct{ copies, removed int }{{1, 0}, {2, 1}, {3, 2}} {
		f := boundLoop(tc.copies)
		if n := BoundCheckElim(f); n != tc.removed {
			t.Fatalf("%d checks in the loop: removed %d, want %d:\n%s", tc.copies, n, tc.removed, f)
		}
		if n := checks(f); n != 1 {
			t.Fatalf("%d checks in the loop: %d left, want 1:\n%s", tc.copies, n, f)
		}
	}
}

func TestLocalCSEGetField(t *testing.T) {
	_, c := testClass()
	b := ir.NewFunc("cse", false)
	a := b.Param("a", ir.KindRef)
	b.Result(ir.KindInt)
	b.Block("entry")
	t1 := b.Temp(ir.KindInt)
	t2 := b.Temp(ir.KindInt)
	t3 := b.Temp(ir.KindInt)
	b.GetField(t1, a, c.FieldByName("f"))
	b.GetField(t2, a, c.FieldByName("f"))
	b.Binop(ir.OpAdd, t3, ir.Var(t1), ir.Var(t2))
	b.Return(ir.Var(t3))
	f := b.Finish()

	st := ScalarReplace(f, arch.IA32Win())
	if st.CSE != 1 {
		t.Fatalf("CSE = %d, want 1:\n%s", st.CSE, f)
	}
	if f.CountOp(ir.OpGetField) != 1 {
		t.Fatalf("loads = %d, want 1:\n%s", f.CountOp(ir.OpGetField), f)
	}
}

func TestLocalCSEKilledByStore(t *testing.T) {
	_, c := testClass()
	b := ir.NewFunc("cse2", false)
	a := b.Param("a", ir.KindRef)
	o := b.Param("o", ir.KindRef)
	b.Result(ir.KindInt)
	b.Block("entry")
	t1 := b.Temp(ir.KindInt)
	t2 := b.Temp(ir.KindInt)
	b.GetField(t1, a, c.FieldByName("f"))
	b.PutField(o, c.FieldByName("f"), ir.ConstInt(9)) // may alias a.f
	b.GetField(t2, a, c.FieldByName("f"))
	t3 := b.Temp(ir.KindInt)
	b.Binop(ir.OpAdd, t3, ir.Var(t1), ir.Var(t2))
	b.Return(ir.Var(t3))
	f := b.Finish()

	st := ScalarReplace(f, arch.IA32Win())
	if st.CSE != 0 {
		t.Fatalf("CSE across aliasing store: %d:\n%s", st.CSE, f)
	}
}

// loopWithFieldLoad builds a do-while loop summing a.f, optionally with the
// null check pre-hoisted by phase 1.
func loopWithFieldLoad(hoistChecks bool) (*ir.Func, *ir.Block, *ir.Block) {
	_, c := testClass()
	b := ir.NewFunc("licm", false)
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
	t1 := b.Temp(ir.KindInt)
	b.GetField(t1, a, c.FieldByName("f"))
	b.Binop(ir.OpAdd, s, ir.Var(s), ir.Var(t1))
	b.Binop(ir.OpAdd, i, ir.Var(i), ir.ConstInt(1))
	b.If(ir.CondLT, ir.Var(i), ir.Var(n), body, exit)
	b.SetBlock(exit)
	b.Return(ir.Var(s))
	f := b.Finish()
	if hoistChecks {
		nullcheck.Phase1(f)
	}
	return f, entry, body
}

func TestLICMNeedsHoistedNullCheck(t *testing.T) {
	// Without phase 1, the load's null check sits in the loop; the load must
	// stay (the barrier interplay of Figure 4).
	f, _, body := loopWithFieldLoad(false)
	st := ScalarReplace(f, arch.IA32Win())
	loadInBody := 0
	for _, in := range body.Instrs {
		if in.Op == ir.OpGetField {
			loadInBody++
		}
	}
	if loadInBody != 1 {
		t.Fatalf("load left the loop without its check being hoisted (hoisted=%d):\n%s", st.Hoisted, f)
	}
}

func TestLICMHoistsAfterPhase1(t *testing.T) {
	f, _, body := loopWithFieldLoad(true)
	st := ScalarReplace(f, arch.IA32Win())
	if st.Hoisted == 0 {
		t.Fatalf("nothing hoisted after phase 1:\n%s", f)
	}
	for _, in := range body.Instrs {
		if in.Op == ir.OpGetField {
			t.Fatalf("load still in loop:\n%s", f)
		}
	}
	if err := nullcheck.CheckGuards(f, arch.IA32Win()); err != nil {
		t.Fatalf("guards violated: %v", err)
	}
}

func TestLICMSpeculatesReadsOnAIX(t *testing.T) {
	// Without phase 1 the check stays in the loop, but AIX reads cannot
	// trap, so the load may be speculated out anyway (§3.3.1, Figure 6).
	f, _, body := loopWithFieldLoad(false)
	st := ScalarReplace(f, arch.PPCAIX())
	if st.Speculated == 0 {
		t.Fatalf("no speculation on AIX model:\n%s", f)
	}
	for _, in := range body.Instrs {
		if in.Op == ir.OpGetField {
			t.Fatalf("load still in loop under speculation:\n%s", f)
		}
	}
	if err := nullcheck.CheckGuards(f, arch.PPCAIX()); err != nil {
		t.Fatalf("guards violated: %v", err)
	}
}

func TestPromoteFieldAcrossLoop(t *testing.T) {
	// Figure 6: a.I is read and written every iteration; after promotion the
	// loads become register moves and the stores write through.
	_, c := testClass()
	b := ir.NewFunc("prom", false)
	a := b.Param("a", ir.KindRef)
	n := b.Param("n", ir.KindInt)
	b.Result(ir.KindInt)
	i := b.Local("i", ir.KindInt)

	entry := b.Block("entry")
	body := b.DeclareBlock("body")
	exit := b.DeclareBlock("exit")
	b.SetBlock(entry)
	b.Move(i, ir.ConstInt(0))
	b.Jump(body)
	b.SetBlock(body)
	t1 := b.Temp(ir.KindInt)
	b.GetField(t1, a, c.FieldByName("f"))
	t2 := b.Temp(ir.KindInt)
	b.Binop(ir.OpAdd, t2, ir.Var(t1), ir.ConstInt(1))
	b.PutField(a, c.FieldByName("f"), ir.Var(t2))
	b.Binop(ir.OpAdd, i, ir.Var(i), ir.ConstInt(1))
	b.If(ir.CondLT, ir.Var(i), ir.Var(n), body, exit)
	b.SetBlock(exit)
	t3 := b.Temp(ir.KindInt)
	b.GetField(t3, a, c.FieldByName("f"))
	b.Return(ir.Var(t3))
	f := b.Finish()

	nullcheck.Phase1(f)
	st := ScalarReplace(f, arch.IA32Win())
	if st.Promoted != 1 {
		t.Fatalf("promoted = %d, want 1:\n%s", st.Promoted, f)
	}
	// Loads inside the loop are gone; the store remains for visibility.
	for _, in := range body.Instrs {
		if in.Op == ir.OpGetField {
			t.Fatalf("load still in loop after promotion:\n%s", f)
		}
	}
	stores := 0
	for _, in := range body.Instrs {
		if in.Op == ir.OpPutField {
			stores++
		}
	}
	if stores != 1 {
		t.Fatalf("stores in loop = %d, want 1:\n%s", stores, f)
	}
}

func TestInlineDevirtualizes(t *testing.T) {
	p, c := testClass()
	// int getF(this) { return this.f }
	cb := ir.NewFunc("getF", true)
	this := cb.Param("this", ir.KindRef)
	cb.Result(ir.KindInt)
	cb.Block("entry")
	v := cb.Temp(ir.KindInt)
	cb.GetField(v, this, c.FieldByName("f"))
	cb.Return(ir.Var(v))
	m := p.AddMethod(c, "getF", cb.Finish(), true)

	b := ir.NewFunc("caller", false)
	a := b.Param("a", ir.KindRef)
	b.Result(ir.KindInt)
	b.Block("entry")
	r := b.Temp(ir.KindInt)
	b.CallVirtual(r, m, a)
	b.Return(ir.Var(r))
	f := b.Finish()

	st := Inline(f, arch.IA32Win())
	if st.Devirtualized != 1 {
		t.Fatalf("devirtualized = %d, want 1:\n%s", st.Devirtualized, f)
	}
	if f.CountOp(ir.OpCallVirtual) != 0 {
		t.Fatalf("call survived:\n%s", f)
	}
	if err := ir.Validate(f); err != nil {
		t.Fatalf("invalid after inline: %v", err)
	}
	// The devirtualization guard must exist and be tagged.
	foundGuard := false
	for _, blk := range f.Blocks {
		for _, in := range blk.Instrs {
			if in.Op == ir.OpNullCheck && in.Reason == ir.ReasonInlined {
				foundGuard = true
			}
		}
	}
	if !foundGuard {
		t.Fatalf("no ReasonInlined guard after devirtualization:\n%s", f)
	}
	if err := nullcheck.CheckGuards(f, arch.IA32Win()); err != nil {
		t.Fatalf("guards violated: %v", err)
	}
}

func TestInlineMultiBlockCallee(t *testing.T) {
	p, c := testClass()
	// Figure 1's callee: int func(this, s1) { if s1 < 0 return s1; return this.f }
	cb := ir.NewFunc("func", true)
	this := cb.Param("this", ir.KindRef)
	s1 := cb.Param("s1", ir.KindInt)
	cb.Result(ir.KindInt)
	entry := cb.Block("entry")
	neg := cb.DeclareBlock("neg")
	pos := cb.DeclareBlock("pos")
	cb.SetBlock(entry)
	cb.If(ir.CondLT, ir.Var(s1), ir.ConstInt(0), neg, pos)
	cb.SetBlock(neg)
	cb.Return(ir.Var(s1))
	cb.SetBlock(pos)
	v := cb.Temp(ir.KindInt)
	cb.GetField(v, this, c.FieldByName("f"))
	cb.Return(ir.Var(v))
	m := p.AddMethod(c, "func", cb.Finish(), true)

	b := ir.NewFunc("caller", false)
	a := b.Param("a", ir.KindRef)
	i := b.Param("i", ir.KindInt)
	b.Result(ir.KindInt)
	b.Block("entry")
	r := b.Temp(ir.KindInt)
	b.CallVirtual(r, m, a, ir.Var(i))
	t2 := b.Temp(ir.KindInt)
	b.Binop(ir.OpAdd, t2, ir.Var(r), ir.ConstInt(1))
	b.Return(ir.Var(t2))
	f := b.Finish()

	Inline(f, arch.IA32Win())
	if err := ir.Validate(f); err != nil {
		t.Fatalf("invalid after inline: %v", err)
	}
	if f.CountOp(ir.OpCallVirtual) != 0 {
		t.Fatalf("call survived:\n%s", f)
	}
	if f.CountOp(ir.OpIf) != 1 {
		t.Fatalf("callee branch lost:\n%s", f)
	}
	if err := nullcheck.CheckGuards(f, arch.IA32Win()); err != nil {
		t.Fatalf("guards violated: %v", err)
	}
}

func TestInlineIntrinsicPerModel(t *testing.T) {
	p := ir.NewProgram("t")
	expM := p.AddMethod(nil, "Math.exp", nil, false)
	expM.Intrinsic = ir.MathExp

	build := func() *ir.Func {
		b := ir.NewFunc("caller", false)
		x := b.Param("x", ir.KindFloat)
		b.Result(ir.KindFloat)
		b.Block("entry")
		r := b.Temp(ir.KindFloat)
		b.CallStatic(r, expM, ir.Var(x))
		b.Return(ir.Var(r))
		return b.Finish()
	}

	fIA := build()
	st := Inline(fIA, arch.IA32Win())
	if st.Intrinsified != 1 || fIA.CountOp(ir.OpMath) != 1 {
		t.Fatalf("ia32: intrinsified=%d math=%d:\n%s", st.Intrinsified, fIA.CountOp(ir.OpMath), fIA)
	}

	fPPC := build()
	st = Inline(fPPC, arch.PPCAIX())
	if st.Intrinsified != 0 || fPPC.CountOp(ir.OpCallStatic) != 1 {
		t.Fatalf("ppc: intrinsified=%d calls=%d (Math.exp must stay a call, §5.4):\n%s",
			st.Intrinsified, fPPC.CountOp(ir.OpCallStatic), fPPC)
	}
}

func TestInlineSkipsRecursion(t *testing.T) {
	p, c := testClass()
	cb := ir.NewFunc("rec", true)
	this := cb.Param("this", ir.KindRef)
	cb.Result(ir.KindInt)
	cb.Block("entry")
	r := cb.Temp(ir.KindInt)
	m := p.AddMethod(c, "rec", nil, true)
	cb.CallVirtual(r, m, this)
	cb.Return(ir.Var(r))
	fn := cb.Finish()
	m.Fn = fn
	fn.Method = m

	before := fn.NumInstrs()
	Inline(fn, arch.IA32Win())
	if fn.NumInstrs() != before {
		t.Fatalf("self-recursive call was inlined:\n%s", fn)
	}
}
