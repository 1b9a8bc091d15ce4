package dataflow

import (
	"testing"

	"trapnull/internal/bitset"
	"trapnull/internal/ir"
)

// straightLine builds entry -> mid -> exit.
func straightLine() (*ir.Func, []*ir.Block) {
	b := ir.NewFunc("sl", false)
	b.Param("x", ir.KindInt)
	b.Result(ir.KindInt)
	entry := b.Block("entry")
	mid := b.DeclareBlock("mid")
	exit := b.DeclareBlock("exit")
	b.SetBlock(entry)
	b.Jump(mid)
	b.SetBlock(mid)
	b.Jump(exit)
	b.SetBlock(exit)
	b.Return(ir.ConstInt(0))
	return b.Finish(), []*ir.Block{entry, mid, exit}
}

// loop builds entry -> header <-> body, header -> exit.
func loop() (*ir.Func, map[string]*ir.Block) {
	b := ir.NewFunc("lp", false)
	n := b.Param("n", ir.KindInt)
	b.Result(ir.KindInt)
	entry := b.Block("entry")
	header := b.DeclareBlock("header")
	body := b.DeclareBlock("body")
	exit := b.DeclareBlock("exit")
	b.SetBlock(entry)
	b.Jump(header)
	b.SetBlock(header)
	b.If(ir.CondLT, ir.ConstInt(0), ir.Var(n), body, exit)
	b.SetBlock(body)
	b.Jump(header)
	b.SetBlock(exit)
	b.Return(ir.ConstInt(0))
	return b.Finish(), map[string]*ir.Block{
		"entry": entry, "header": header, "body": body, "exit": exit,
	}
}

func setOf(size int, elems ...int) *bitset.Set {
	s := bitset.New(size)
	for _, e := range elems {
		s.Add(e)
	}
	return s
}

// scanOf summarizes each block by its entries in the gen and kill maps;
// blocks absent from a map get the empty set Solve supplies.
func scanOf(gen, kill map[*ir.Block]*bitset.Set) func(*ir.Block, *bitset.Set, *bitset.Set) {
	return func(b *ir.Block, g, k *bitset.Set) {
		if s, ok := gen[b]; ok {
			g.CopyFrom(s)
		}
		if s, ok := kill[b]; ok {
			k.CopyFrom(s)
		}
	}
}

func TestForwardUnionPropagates(t *testing.T) {
	f, blocks := straightLine()
	const size = 4
	gen := map[*ir.Block]*bitset.Set{blocks[0]: setOf(size, 1)}
	res := Solve(f, &Problem{
		Dir: Forward, Meet: Union, Size: size,
		Scan: scanOf(gen, nil),
	})
	if !res.In(blocks[2]).Has(1) {
		t.Fatalf("bit 1 did not reach exit: In(exit) = %v", res.In(blocks[2]))
	}
	if res.In(blocks[0]).Has(1) {
		t.Fatal("gen leaked into entry In")
	}
}

func TestForwardKillStopsPropagation(t *testing.T) {
	f, blocks := straightLine()
	const size = 4
	gen := map[*ir.Block]*bitset.Set{blocks[0]: setOf(size, 1)}
	kill := map[*ir.Block]*bitset.Set{blocks[1]: setOf(size, 1)}
	res := Solve(f, &Problem{
		Dir: Forward, Meet: Union, Size: size,
		Scan: scanOf(gen, kill),
	})
	if res.In(blocks[2]).Has(1) {
		t.Fatal("killed bit reached exit")
	}
	if !res.In(blocks[1]).Has(1) {
		t.Fatal("bit should reach mid's entry before being killed")
	}
}

func TestForwardIntersectAtMerge(t *testing.T) {
	// entry -> (a | b) -> merge. Only a gens the bit, so intersection at
	// merge must drop it; union must keep it.
	b := ir.NewFunc("m", false)
	n := b.Param("n", ir.KindInt)
	b.Result(ir.KindInt)
	entry := b.Block("entry")
	ba := b.DeclareBlock("a")
	bb := b.DeclareBlock("b")
	merge := b.DeclareBlock("merge")
	b.SetBlock(entry)
	b.If(ir.CondLT, ir.Var(n), ir.ConstInt(0), ba, bb)
	b.SetBlock(ba)
	b.Jump(merge)
	b.SetBlock(bb)
	b.Jump(merge)
	b.SetBlock(merge)
	b.Return(ir.ConstInt(0))
	f := b.Finish()

	const size = 2
	gen := map[*ir.Block]*bitset.Set{ba: setOf(size, 0)}
	for _, tc := range []struct {
		meet Meet
		want bool
	}{{Intersect, false}, {Union, true}} {
		res := Solve(f, &Problem{
			Dir: Forward, Meet: tc.meet, Size: size,
			Scan: scanOf(gen, nil),
		})
		if got := res.In(merge).Has(0); got != tc.want {
			t.Fatalf("meet=%v: In(merge).Has(0) = %v, want %v", tc.meet, got, tc.want)
		}
	}
}

func TestBackwardAnticipabilityThroughLoop(t *testing.T) {
	// A bit generated in the loop body and in the exit is anticipable at the
	// loop header only with the optimistic (full) intersection init: the
	// header's Out meets body.In ∩ exit.In.
	f, m := loop()
	const size = 2
	gen := map[*ir.Block]*bitset.Set{m["body"]: setOf(size, 0), m["exit"]: setOf(size, 0)}
	res := Solve(f, &Problem{
		Dir: Backward, Meet: Intersect, Size: size,
		Scan: scanOf(gen, nil),
	})
	if !res.Out(m["header"]).Has(0) {
		t.Fatal("bit generated on every path from header not anticipated at header exit")
	}
	if !res.Out(m["entry"]).Has(0) {
		t.Fatal("bit not anticipated at entry exit")
	}
	// A bit generated only in the body must not be anticipated at the header
	// (the exit path lacks it).
	gen2 := map[*ir.Block]*bitset.Set{m["body"]: setOf(size, 1)}
	res2 := Solve(f, &Problem{
		Dir: Backward, Meet: Intersect, Size: size,
		Scan: scanOf(gen2, nil),
	})
	if res2.Out(m["header"]).Has(1) {
		t.Fatal("body-only bit wrongly anticipated at header exit")
	}
}

func TestBoundaryValueUsed(t *testing.T) {
	f, blocks := straightLine()
	const size = 3
	res := Solve(f, &Problem{
		Dir: Forward, Meet: Intersect, Size: size,
		Boundary: setOf(size, 2),
		Scan:     scanOf(nil, nil),
	})
	if !res.In(blocks[0]).Has(2) {
		t.Fatal("boundary bit missing from entry In")
	}
	if !res.Out(blocks[2]).Has(2) {
		t.Fatal("boundary bit did not flow to exit Out")
	}
}

func TestEdgeSubtract(t *testing.T) {
	f, blocks := straightLine()
	const size = 2
	gen := map[*ir.Block]*bitset.Set{blocks[0]: setOf(size, 0)}
	res := Solve(f, &Problem{
		Dir: Forward, Meet: Union, Size: size,
		Scan: scanOf(gen, nil),
		EdgeSubtract: func(from, to *ir.Block) *bitset.Set {
			if from == blocks[1] && to == blocks[2] {
				return setOf(size, 0)
			}
			return nil
		},
	})
	if !res.In(blocks[1]).Has(0) {
		t.Fatal("bit should cross entry->mid")
	}
	if res.In(blocks[2]).Has(0) {
		t.Fatal("bit should be subtracted on mid->exit")
	}
}

func TestEdgeAdd(t *testing.T) {
	f, blocks := straightLine()
	const size = 2
	res := Solve(f, &Problem{
		Dir: Forward, Meet: Union, Size: size,
		Scan: scanOf(nil, nil),
		EdgeAdd: func(from, to *ir.Block) *bitset.Set {
			if from == blocks[0] && to == blocks[1] {
				return setOf(size, 1)
			}
			return nil
		},
	})
	if !res.In(blocks[1]).Has(1) {
		t.Fatal("edge-added bit missing at mid")
	}
	if !res.In(blocks[2]).Has(1) {
		t.Fatal("edge-added bit should keep flowing to exit")
	}
	if res.In(blocks[0]).Has(1) {
		t.Fatal("edge-added bit leaked to entry")
	}
}

func TestUnreachableBlocksGetEmptySets(t *testing.T) {
	f, _ := straightLine()
	dead := f.NewBlock("dead")
	dead.Instrs = []*ir.Instr{{Op: ir.OpReturn, Dst: ir.NoVar, Args: []ir.Operand{ir.ConstInt(0)}}}
	f.RecomputeEdges()
	res := Solve(f, &Problem{
		Dir: Forward, Meet: Intersect, Size: 4,
		Boundary: setOf(4, 1),
		Scan:     scanOf(nil, nil),
	})
	if !res.In(dead).IsEmpty() || !res.Out(dead).IsEmpty() {
		t.Fatal("unreachable block should have empty sets")
	}
}

func TestScanRunsOncePerReachableBlock(t *testing.T) {
	f, blocks := straightLine()
	dead := f.NewBlock("dead")
	dead.Instrs = []*ir.Instr{{Op: ir.OpReturn, Dst: ir.NoVar, Args: []ir.Operand{ir.ConstInt(0)}}}
	f.RecomputeEdges()
	scans := map[*ir.Block]int{}
	res := Solve(f, &Problem{
		Dir: Forward, Meet: Union, Size: 4,
		Scan: func(b *ir.Block, gen, kill *bitset.Set) {
			scans[b]++
			if !gen.IsEmpty() || !kill.IsEmpty() || gen.Len() != 4 || kill.Len() != 4 {
				t.Fatalf("%s: Scan got gen %v, kill %v; want two empty sets of size 4", b, gen, kill)
			}
			gen.Add(1)
		},
	})
	defer res.Release()
	for _, b := range blocks {
		if scans[b] != 1 {
			t.Errorf("%s scanned %d times, want once", b, scans[b])
		}
	}
	if scans[dead] != 0 {
		t.Errorf("unreachable block scanned %d times", scans[dead])
	}
	if !res.Out(blocks[2]).Has(1) {
		t.Fatal("Scan's gen lost")
	}
}

func TestHandlerBlocksParticipateInAnalysis(t *testing.T) {
	// A handler block has no CFG predecessors; it must still get solved
	// (non-empty results where its own gen provides them) rather than being
	// skipped as unreachable.
	b := ir.NewFunc("h", false)
	b.Result(ir.KindInt)
	entry := b.Block("entry")
	handler := b.DeclareBlock("handler")
	after := b.DeclareBlock("after")
	exc := b.F.NewLocal("exc", ir.KindRef)
	b.SetBlock(entry)
	x := b.Temp(ir.KindInt)
	b.Binop(ir.OpDiv, x, ir.ConstInt(1), ir.ConstInt(1))
	b.Jump(after)
	b.SetBlock(handler)
	y := b.Temp(ir.KindInt)
	b.Move(y, ir.ConstInt(5))
	b.Jump(after)
	b.SetBlock(after)
	b.Return(ir.ConstInt(0))
	f := b.F
	region := f.NewRegion(handler, exc)
	entry.Try = region.ID
	f.RecomputeEdges()
	if err := ir.Validate(f); err != nil {
		t.Fatal(err)
	}

	const size = 8
	genVals := map[*ir.Block]*bitset.Set{handler: setOf(size, 2)}
	res := Solve(f, &Problem{
		Dir: Forward, Meet: Union, Size: size,
		Scan: scanOf(genVals, nil),
	})
	if !res.Out(handler).Has(2) {
		t.Fatal("handler block not analyzed")
	}
	if !res.In(after).Has(2) {
		t.Fatal("handler facts did not flow to its successor")
	}
	// The handler's In must be the conservative empty set, not the entry
	// boundary.
	if !res.In(handler).IsEmpty() {
		t.Fatalf("handler In = %v, want empty", res.In(handler))
	}
}
