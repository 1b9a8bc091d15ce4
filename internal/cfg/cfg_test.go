package cfg

import (
	"testing"

	"trapnull/internal/ir"
)

// loopFunc builds: entry -> header; header -> body | exit; body -> header.
func loopFunc() (*ir.Func, *ir.Block, *ir.Block, *ir.Block, *ir.Block) {
	b := ir.NewFunc("loop", false)
	n := b.Param("n", ir.KindInt)
	b.Result(ir.KindInt)
	i := b.Local("i", ir.KindInt)

	entry := b.Block("entry")
	header := b.DeclareBlock("header")
	body := b.DeclareBlock("body")
	exit := b.DeclareBlock("exit")

	b.SetBlock(entry)
	b.Move(i, ir.ConstInt(0))
	b.Jump(header)

	b.SetBlock(header)
	b.If(ir.CondLT, ir.Var(i), ir.Var(n), body, exit)

	b.SetBlock(body)
	b.Binop(ir.OpAdd, i, ir.Var(i), ir.ConstInt(1))
	b.Jump(header)

	b.SetBlock(exit)
	b.Return(ir.Var(i))
	return b.Finish(), entry, header, body, exit
}

func TestReversePostorder(t *testing.T) {
	f, entry, header, _, _ := loopFunc()
	var n Numbering
	n.Renumber(f, false)
	rpo := n.Order
	if len(rpo) != 4 {
		t.Fatalf("rpo has %d blocks, want 4", len(rpo))
	}
	if rpo[0] != entry {
		t.Fatalf("rpo[0] = %s, want entry", rpo[0])
	}
	if rpo[1] != header {
		t.Fatalf("rpo[1] = %s, want header", rpo[1])
	}
}

func TestReversePostorderSkipsUnreachable(t *testing.T) {
	f, _, _, _, _ := loopFunc()
	dead := f.NewBlock("dead")
	dead.Instrs = []*ir.Instr{{Op: ir.OpReturn, Dst: ir.NoVar, Args: []ir.Operand{ir.ConstInt(0)}}}
	f.RecomputeEdges()
	var n Numbering
	n.Renumber(f, false)
	if got := len(n.Order); got != 4 {
		t.Fatalf("rpo has %d blocks, want 4 (dead excluded)", got)
	}
	if n.Reaches(dead) {
		t.Fatal("dead block reported reachable")
	}
}

func TestDominators(t *testing.T) {
	f, entry, header, body, exit := loopFunc()
	dom := ComputeDominators(f)
	if dom.Idom(header) != entry {
		t.Fatalf("idom(header) = %s, want entry", dom.Idom(header))
	}
	if dom.Idom(body) != header {
		t.Fatalf("idom(body) = %s, want header", dom.Idom(body))
	}
	if dom.Idom(exit) != header {
		t.Fatalf("idom(exit) = %s, want header", dom.Idom(exit))
	}
	if !dom.Dominates(entry, exit) {
		t.Fatal("entry must dominate exit")
	}
	if !dom.Dominates(header, header) {
		t.Fatal("dominance must be reflexive")
	}
	if dom.Dominates(body, exit) {
		t.Fatal("body must not dominate exit")
	}
}

func TestFindLoops(t *testing.T) {
	f, _, header, body, exit := loopFunc()
	dom := ComputeDominators(f)
	loops := FindLoops(f, dom)
	if len(loops) != 1 {
		t.Fatalf("found %d loops, want 1", len(loops))
	}
	l := loops[0]
	if l.Header != header {
		t.Fatalf("loop header = %s, want header", l.Header)
	}
	if !l.Contains(body) || !l.Contains(header) {
		t.Fatal("loop must contain header and body")
	}
	if l.Contains(exit) {
		t.Fatal("loop must not contain exit")
	}
	if l.Depth() != 1 {
		t.Fatalf("depth = %d, want 1", l.Depth())
	}
}

func TestEnsurePreheadersReusesExisting(t *testing.T) {
	f, entry, _, _, _ := loopFunc()
	dom := ComputeDominators(f)
	loops := FindLoops(f, dom)
	created := EnsurePreheaders(f, loops)
	if created != 0 {
		t.Fatalf("created %d preheaders, want 0 (entry qualifies)", created)
	}
	if loops[0].Preheader != entry {
		t.Fatalf("preheader = %s, want entry", loops[0].Preheader)
	}
}

// nestedLoops builds a doubly nested counted loop.
func nestedLoops() *ir.Func {
	b := ir.NewFunc("nested", false)
	n := b.Param("n", ir.KindInt)
	b.Result(ir.KindInt)
	i := b.Local("i", ir.KindInt)
	j := b.Local("j", ir.KindInt)
	s := b.Local("s", ir.KindInt)

	entry := b.Block("entry")
	oh := b.DeclareBlock("outerHead")
	ih := b.DeclareBlock("innerHead")
	ib := b.DeclareBlock("innerBody")
	oinc := b.DeclareBlock("outerInc")
	exit := b.DeclareBlock("exit")

	b.SetBlock(entry)
	b.Move(i, ir.ConstInt(0))
	b.Move(s, ir.ConstInt(0))
	b.Jump(oh)

	b.SetBlock(oh)
	b.If(ir.CondLT, ir.Var(i), ir.Var(n), ih, exit)

	b.SetBlock(ih)
	b.Move(j, ir.ConstInt(0))
	b.Jump(ib)

	b.SetBlock(ib)
	b.Binop(ir.OpAdd, s, ir.Var(s), ir.Var(j))
	b.Binop(ir.OpAdd, j, ir.Var(j), ir.ConstInt(1))
	innerTest := b.DeclareBlock("innerTest")
	b.Jump(innerTest)
	b.SetBlock(innerTest)
	b.If(ir.CondLT, ir.Var(j), ir.Var(n), ib, oinc)

	b.SetBlock(oinc)
	b.Binop(ir.OpAdd, i, ir.Var(i), ir.ConstInt(1))
	b.Jump(oh)

	b.SetBlock(exit)
	b.Return(ir.Var(s))
	return b.Finish()
}

func TestNestedLoopsDetected(t *testing.T) {
	f := nestedLoops()
	dom := ComputeDominators(f)
	loops := FindLoops(f, dom)
	if len(loops) != 2 {
		t.Fatalf("found %d loops, want 2", len(loops))
	}
	inner, outer := loops[0], loops[1]
	if len(inner.Blocks) >= len(outer.Blocks) {
		t.Fatal("loops not sorted innermost-first")
	}
	if inner.Parent != outer {
		t.Fatalf("inner.Parent = %v, want outer", inner.Parent)
	}
	if inner.Depth() != 2 {
		t.Fatalf("inner depth = %d, want 2", inner.Depth())
	}
	for _, blk := range inner.Blocks {
		if !outer.Contains(blk) {
			t.Fatalf("inner block %s not inside outer loop", blk)
		}
	}
}

func TestEnsurePreheadersReusedForNested(t *testing.T) {
	f := nestedLoops()
	dom := ComputeDominators(f)
	loops := FindLoops(f, dom)
	EnsurePreheaders(f, loops)
	if err := ir.Validate(f); err != nil {
		t.Fatalf("invalid after preheaders: %v", err)
	}
	for _, l := range loops {
		if l.Preheader == nil {
			t.Fatalf("loop %s missing preheader", l.Header)
		}
	}
}

// twoEntryLoop builds a loop whose header has two distinct outside
// predecessors, forcing preheader creation.
func twoEntryLoop() *ir.Func {
	b := ir.NewFunc("twoentry", false)
	n := b.Param("n", ir.KindInt)
	b.Result(ir.KindInt)
	i := b.Local("i", ir.KindInt)

	entry := b.Block("entry")
	a := b.DeclareBlock("a")
	c := b.DeclareBlock("c")
	header := b.DeclareBlock("header")
	body := b.DeclareBlock("body")
	exit := b.DeclareBlock("exit")

	b.SetBlock(entry)
	b.If(ir.CondLT, ir.Var(n), ir.ConstInt(10), a, c)
	b.SetBlock(a)
	b.Move(i, ir.ConstInt(0))
	b.Jump(header)
	b.SetBlock(c)
	b.Move(i, ir.ConstInt(5))
	b.Jump(header)
	b.SetBlock(header)
	b.If(ir.CondLT, ir.Var(i), ir.Var(n), body, exit)
	b.SetBlock(body)
	b.Binop(ir.OpAdd, i, ir.Var(i), ir.ConstInt(1))
	b.Jump(header)
	b.SetBlock(exit)
	b.Return(ir.Var(i))
	return b.Finish()
}

func TestEnsurePreheadersCreates(t *testing.T) {
	f := twoEntryLoop()
	dom := ComputeDominators(f)
	loops := FindLoops(f, dom)
	created := EnsurePreheaders(f, loops)
	if created != 1 {
		t.Fatalf("created %d preheaders, want 1", created)
	}
	if err := ir.Validate(f); err != nil {
		t.Fatalf("invalid after preheaders: %v", err)
	}
	for _, l := range loops {
		if l.Preheader == nil {
			t.Fatalf("loop %s missing preheader", l.Header)
		}
		// Preheader must have the header as its only successor.
		if len(l.Preheader.Succs) != 1 || l.Preheader.Succs[0] != l.Header {
			t.Fatalf("preheader %s has wrong successors", l.Preheader)
		}
		// Header's only out-of-loop pred must be the preheader.
		for _, p := range l.Header.Preds {
			if !l.Contains(p) && p != l.Preheader {
				t.Fatalf("header %s still has outside pred %s", l.Header, p)
			}
		}
	}
}
