// Package randprog generates random, structurally valid, always-terminating
// IR programs for differential testing: whatever the optimizer does to them,
// execution on the simulated machine must produce the identical outcome —
// same checksum or same exception kind — as the unoptimized original.
//
// Programs are generated structurally (sequences, if/else, bounded counted
// loops, optional try/catch), so termination is guaranteed by construction.
// Reference variables may be null on some paths, so null pointer exceptions,
// bounds failures and division faults all occur organically and the precise
// exception semantics of every pipeline get exercised.
package randprog

import (
	"fmt"
	"math/rand"
	"sync"

	"trapnull/internal/ir"
)

// Config tunes generation.
type Config struct {
	Seed     int64
	MaxDepth int // nesting depth of if/loop/try constructs
	MaxStmts int // statements per block sequence
	// AllowNull lets reference variables be assigned null, making real NPE
	// paths reachable.
	AllowNull bool
	// AllowTry wraps some regions in try/catch.
	AllowTry bool
	// AllowOOB permits out-of-range constant array indices, exercising
	// bounds-check exceptions.
	AllowOOB bool
}

// DefaultConfig returns a balanced generator configuration for a seed.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:      seed,
		MaxDepth:  3,
		MaxStmts:  6,
		AllowNull: true,
		AllowTry:  true,
		AllowOOB:  true,
	}
}

type gen struct {
	cfg   Config
	rng   *rand.Rand
	b     *ir.Builder
	cls   *ir.Class
	ints  []ir.VarID
	refs  []ir.VarID
	arrs  []ir.VarID
	depth int
	// curTry is the innermost active try region index or ir.NoTry; new
	// blocks created while inside a try must inherit it.
	curTry int
	names  int
	// Callable helpers generated alongside main, exercising the
	// devirtualizer/inliner: a plain accessor, a Figure 1 guarded accessor,
	// and a throwing static.
	getter  *ir.Method
	clamped *ir.Method
	divider *ir.Method
	// refArr is an array of references with null slots; loading from it is
	// how maybe-null row pointers enter the program.
	refArr ir.VarID
}

// rngs pools the generators' random sources: a source is 4.9 KB, more
// than most programs it generates.
var rngs = sync.Pool{New: func() any { return rand.New(rand.NewSource(0)) }}

// Generate builds a random program: one class with three int fields and a
// function `int main(int n)` returning a checksum of its integer state.
func Generate(cfg Config) (*ir.Program, *ir.Func) {
	rng := rngs.Get().(*rand.Rand)
	defer rngs.Put(rng)
	// Reseeding yields the sequence of rand.New(rand.NewSource(cfg.Seed)).
	rng.Seed(cfg.Seed)
	return generate(cfg, rng)
}

// generate is Generate drawing from rng.
func generate(cfg Config, rng *rand.Rand) (*ir.Program, *ir.Func) {
	if cfg.MaxDepth <= 0 {
		cfg.MaxDepth = 2
	}
	if cfg.MaxStmts <= 0 {
		cfg.MaxStmts = 4
	}
	p := ir.NewProgram(fmt.Sprintf("rand%d", cfg.Seed))
	cls := p.NewClass("R",
		&ir.Field{Name: "f0", Kind: ir.KindInt},
		&ir.Field{Name: "f1", Kind: ir.KindInt},
		&ir.Field{Name: "f2", Kind: ir.KindInt},
	)

	g := &gen{
		cfg:    cfg,
		rng:    rng,
		cls:    cls,
		curTry: ir.NoTry,
	}
	g.buildHelpers(p)
	b := ir.NewFunc("main", false)
	g.b = b
	n := b.Param("n", ir.KindInt)
	b.Result(ir.KindInt)
	b.Block("entry")

	// Seed the variable pools.
	g.ints = append(g.ints, n)
	for i := 0; i < 3; i++ {
		v := b.Local(fmt.Sprintf("x%d", i), ir.KindInt)
		b.Move(v, ir.ConstInt(int64(g.rng.Intn(20)-5)))
		g.ints = append(g.ints, v)
	}
	for i := 0; i < 2; i++ {
		r := b.Local(fmt.Sprintf("r%d", i), ir.KindRef)
		b.New(r, cls)
		g.refs = append(g.refs, r)
	}
	a0 := b.Local("a0", ir.KindRef)
	b.NewArray(a0, ir.ConstInt(int64(4+g.rng.Intn(4))))
	g.arrs = append(g.arrs, a0)
	// A reference array seeded with one object and one null slot: loads
	// from it produce maybe-null references, the 2D row-pointer pattern.
	ra := b.Local("ra", ir.KindRef)
	b.NewArray(ra, ir.ConstInt(4))
	b.ArrayStore(ra, ir.ConstInt(0), ir.Var(g.refs[0]))
	g.refArr = ra

	g.seq()

	// Checksum all integer state plus the fields of the first ref and the
	// first array slot, guarding with explicit null tests so the epilogue
	// itself cannot throw.
	s := b.Local("checksum", ir.KindInt)
	b.Move(s, ir.ConstInt(0))
	for _, v := range g.ints {
		b.Binop(ir.OpMul, s, ir.Var(s), ir.ConstInt(31))
		b.Binop(ir.OpAdd, s, ir.Var(s), ir.Var(v))
	}
	g.checksumRef(s, g.refs[0])
	b.Return(ir.Var(s))
	fn := b.Finish()
	p.AddMethod(nil, "main", fn, false)
	return p, fn
}

// buildHelpers creates the three fixed callee shapes main's random sites
// invoke: a virtual accessor (inliner fodder), a Figure 1 guarded accessor
// (the conditional-dereference shape phase 2 exists for), and a static
// divider (a call that can throw ArithmeticException).
func (g *gen) buildHelpers(p *ir.Program) {
	// virtual getf0(this): return this.f0
	gb := ir.NewFunc("getf0", true)
	gThis := gb.Param("this", ir.KindRef)
	gb.Result(ir.KindInt)
	gb.Block("entry")
	gv := gb.Temp(ir.KindInt)
	gb.GetField(gv, gThis, g.cls.FieldByName("f0"))
	gb.Return(ir.Var(gv))
	g.getter = p.AddMethod(g.cls, "getf0", gb.Finish(), true)

	// virtual clamped(this, i): if i < 0 { return i } return this.f1
	cb := ir.NewFunc("clamped", true)
	cThis := cb.Param("this", ir.KindRef)
	cArg := cb.Param("i", ir.KindInt)
	cb.Result(ir.KindInt)
	cb.Block("entry")
	neg := cb.DeclareBlock("neg")
	pos := cb.DeclareBlock("pos")
	cb.If(ir.CondLT, ir.Var(cArg), ir.ConstInt(0), neg, pos)
	cb.SetBlock(neg)
	cb.Return(ir.Var(cArg))
	cb.SetBlock(pos)
	cv := cb.Temp(ir.KindInt)
	cb.GetField(cv, cThis, g.cls.FieldByName("f1"))
	cb.Return(ir.Var(cv))
	g.clamped = p.AddMethod(g.cls, "clamped", cb.Finish(), true)

	// static divide(a, b): return a / b   (throws on b == 0)
	db := ir.NewFunc("divide", false)
	dA := db.Param("a", ir.KindInt)
	dB := db.Param("b", ir.KindInt)
	db.Result(ir.KindInt)
	db.Block("entry")
	dv := db.Temp(ir.KindInt)
	db.Binop(ir.OpDiv, dv, ir.Var(dA), ir.Var(dB))
	db.Return(ir.Var(dv))
	g.divider = p.AddMethod(nil, "divide", db.Finish(), false)
}

// checksumRef folds r's fields into s when r is non-null.
func (g *gen) checksumRef(s, r ir.VarID) {
	b := g.b
	use := g.newBlock("ck_use")
	done := g.newBlock("ck_done")
	b.If(ir.CondEQ, ir.Var(r), ir.Null(), done, use)
	b.SetBlock(use)
	for _, fname := range []string{"f0", "f1", "f2"} {
		v := b.Temp(ir.KindInt)
		b.GetField(v, r, g.cls.FieldByName(fname))
		b.Binop(ir.OpMul, s, ir.Var(s), ir.ConstInt(31))
		b.Binop(ir.OpAdd, s, ir.Var(s), ir.Var(v))
	}
	b.Jump(done)
	b.SetBlock(done)
}

func (g *gen) newBlock(name string) *ir.Block {
	g.names++
	blk := g.b.DeclareBlock(fmt.Sprintf("%s_%d", name, g.names))
	blk.Try = g.curTry
	return blk
}

func (g *gen) intOperand() ir.Operand {
	if g.rng.Intn(3) == 0 {
		return ir.ConstInt(int64(g.rng.Intn(17) - 4))
	}
	return ir.Var(g.ints[g.rng.Intn(len(g.ints))])
}

func (g *gen) intVar() ir.VarID { return g.ints[g.rng.Intn(len(g.ints))] }
func (g *gen) refVar() ir.VarID { return g.refs[g.rng.Intn(len(g.refs))] }
func (g *gen) arrVar() ir.VarID { return g.arrs[g.rng.Intn(len(g.arrs))] }
func (g *gen) field() *ir.Field { return g.cls.Fields[g.rng.Intn(len(g.cls.Fields))] }
func (g *gen) cond() ir.Cond    { return ir.Cond(g.rng.Intn(6)) }
func (g *gen) arith() ir.Op {
	return []ir.Op{ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpAnd, ir.OpOr, ir.OpXor}[g.rng.Intn(6)]
}
func (g *gen) idxOperand() ir.Operand {
	max := 6
	if g.cfg.AllowOOB {
		max = 9 // sometimes out of range for the small arrays
	}
	if g.rng.Intn(2) == 0 {
		return ir.ConstInt(int64(g.rng.Intn(max)))
	}
	// Variable index masked into a small range by an emitted AND.
	v := g.b.Temp(ir.KindInt)
	g.b.Binop(ir.OpAnd, v, ir.Var(g.intVar()), ir.ConstInt(7))
	return ir.Var(v)
}

// seq emits a straight-line sequence with nested constructs.
func (g *gen) seq() {
	n := 1 + g.rng.Intn(g.cfg.MaxStmts)
	for i := 0; i < n; i++ {
		g.stmt()
	}
}

func (g *gen) stmt() {
	b := g.b
	choice := g.rng.Intn(14)
	switch {
	case choice < 4: // integer arithmetic
		b.Binop(g.arith(), g.intVar(), g.intOperand(), g.intOperand())
	case choice == 4: // division (can throw ArithmeticException)
		b.Binop(ir.OpDiv, g.intVar(), g.intOperand(), g.intOperand())
	case choice == 5: // field load (null check + getfield)
		b.GetField(g.intVar(), g.refVar(), g.field())
	case choice == 6: // field store
		b.PutField(g.refVar(), g.field(), g.intOperand())
	case choice == 7: // array load
		b.ArrayLoad(g.intVar(), g.arrVar(), g.idxOperand())
	case choice == 8: // array store
		b.ArrayStore(g.arrVar(), g.idxOperand(), g.intOperand())
	case choice == 9: // reference shuffle
		r := g.refVar()
		switch g.rng.Intn(5) {
		case 0:
			b.New(r, g.cls)
		case 1:
			if g.cfg.AllowNull {
				b.Move(r, ir.Null())
			} else {
				b.New(r, g.cls)
			}
		case 2:
			// Load a maybe-null reference from the reference array (the
			// row-pointer pattern); in-range index so only nullness varies.
			b.ArrayLoad(r, g.refArr, ir.ConstInt(int64(g.rng.Intn(4))))
		case 3:
			// Store a reference into the array (possibly null already).
			b.ArrayStore(g.refArr, ir.ConstInt(int64(g.rng.Intn(4))), ir.Var(g.refVar()))
		default:
			b.Move(r, ir.Var(g.refVar()))
		}
	case choice == 10 && g.depth < g.cfg.MaxDepth: // if/else
		g.ifElse()
	case choice == 11 && g.depth < g.cfg.MaxDepth: // counted loop
		g.loop()
	case choice == 12 && g.depth < g.cfg.MaxDepth && g.cfg.AllowTry && g.curTry == ir.NoTry:
		g.try()
	case choice == 13:
		// Method call — devirtualization/inlining fodder. The receiver may
		// be null, so inlined guards fire organically.
		switch g.rng.Intn(3) {
		case 0:
			b.CallVirtual(g.intVar(), g.getter, g.refVar())
		case 1:
			b.CallVirtual(g.intVar(), g.clamped, g.refVar(), g.intOperand())
		default:
			b.CallStatic(g.intVar(), g.divider, g.intOperand(), g.intOperand())
		}
	default: // arraylength
		b.ArrayLength(g.intVar(), g.arrVar())
	}
}

func (g *gen) ifElse() {
	b := g.b
	g.depth++
	defer func() { g.depth-- }()

	thenB := g.newBlock("then")
	elseB := g.newBlock("else")
	joinB := g.newBlock("join")

	// Branch on a null test or an instanceof result (the two Edge rules of
	// §4.1.2), otherwise on an integer comparison.
	switch g.rng.Intn(4) {
	case 0:
		if g.cfg.AllowNull {
			b.If(ir.CondEQ, ir.Var(g.refVar()), ir.Null(), thenB, elseB)
			break
		}
		fallthrough
	case 1:
		t := b.Temp(ir.KindInt)
		b.InstanceOf(t, g.refVar(), g.cls)
		if g.rng.Intn(2) == 0 {
			b.If(ir.CondNE, ir.Var(t), ir.ConstInt(0), thenB, elseB)
		} else {
			b.If(ir.CondEQ, ir.Var(t), ir.ConstInt(0), thenB, elseB)
		}
	default:
		b.If(g.cond(), g.intOperand(), g.intOperand(), thenB, elseB)
	}
	b.SetBlock(thenB)
	g.seq()
	b.Jump(joinB)
	b.SetBlock(elseB)
	g.seq()
	b.Jump(joinB)
	b.SetBlock(joinB)
}

func (g *gen) loop() {
	b := g.b
	g.depth++
	defer func() { g.depth-- }()

	i := b.Local(fmt.Sprintf("i%d", g.names), ir.KindInt)
	g.names++
	trip := int64(g.rng.Intn(5)) // 0..4; zero-trip only reachable while-style

	if g.rng.Intn(2) == 0 {
		// Bottom-tested (do-while) form; always runs at least once.
		if trip == 0 {
			trip = 1
		}
		body := g.newBlock("loop_body")
		exit := g.newBlock("loop_exit")
		b.Move(i, ir.ConstInt(0))
		b.Jump(body)
		b.SetBlock(body)
		g.seq()
		b.Binop(ir.OpAdd, i, ir.Var(i), ir.ConstInt(1))
		b.If(ir.CondLT, ir.Var(i), ir.ConstInt(trip), body, exit)
		b.SetBlock(exit)
		return
	}
	// Top-tested (while) form — the shape RotateLoops peels; may run zero
	// times, exercising the guard path.
	head := g.newBlock("while_head")
	body := g.newBlock("while_body")
	exit := g.newBlock("while_exit")
	b.Move(i, ir.ConstInt(0))
	b.Jump(head)
	b.SetBlock(head)
	b.If(ir.CondLT, ir.Var(i), ir.ConstInt(trip), body, exit)
	b.SetBlock(body)
	g.seq()
	b.Binop(ir.OpAdd, i, ir.Var(i), ir.ConstInt(1))
	b.Jump(head)
	b.SetBlock(exit)
}

func (g *gen) try() {
	b := g.b
	g.depth++
	defer func() { g.depth-- }()

	exc := b.Local(fmt.Sprintf("exc%d", g.names), ir.KindRef)
	g.names++
	handler := g.newBlock("handler")
	region := g.b.F.NewRegion(handler, exc)

	tryB := g.newBlock("try")
	tryB.Try = region.ID
	join := g.newBlock("try_join")

	b.Jump(tryB)
	b.SetBlock(tryB)
	prevTry := g.curTry
	g.curTry = region.ID
	g.seq()
	g.curTry = prevTry
	// All blocks created inside the try carry the region; leave it.
	b.Jump(join)

	b.SetBlock(handler)
	// The handler records that it ran.
	b.Binop(ir.OpAdd, g.ints[1], ir.Var(g.ints[1]), ir.ConstInt(1000))
	b.Jump(join)

	b.SetBlock(join)
}
