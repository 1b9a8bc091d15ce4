package machine

import (
	"math"
	"testing"
	"unsafe"

	"trapnull/internal/arch"
	"trapnull/internal/ir"
)

// chainFn builds a function of blocks blocks in a chain, each of perBlock
// adds into one accumulator before its jump; the last block returns it.
func chainFn(blocks, perBlock int) *ir.Func {
	b := ir.NewFunc("chain", false)
	x := b.Param("x", ir.KindInt)
	b.Result(ir.KindInt)
	next := b.Block("b0")
	for i := range blocks {
		b.SetBlock(next)
		for j := range perBlock {
			b.Binop(ir.OpAdd, x, ir.Var(x), ir.ConstInt(int64(i+j)))
		}
		if i == blocks-1 {
			b.Return(ir.Var(x))
			break
		}
		next = b.DeclareBlock("b")
		b.Jump(next)
	}
	return b.Finish()
}

// TestPrepareAllocsIndependentOfSize: a function's prepared table is carved
// from slabs made once at their counted size, so preparing a one-block,
// two-instruction function and a 40-block, 1,000-instruction one takes the
// same number of allocations.
func TestPrepareAllocsIndependentOfSize(t *testing.T) {
	m := New(arch.IA32Win(), nil)
	m.Engine = EngineSwitch
	allocs := func(fn *ir.Func) float64 {
		return testing.AllocsPerRun(20, func() {
			m.ResetPrepared()
			m.prepare(fn)
		})
	}
	small, large := chainFn(1, 1), chainFn(40, 24)
	if n := len(m.prepare(large).pf.ins); n != 1000 {
		t.Fatalf("large function prepared %d records, want 1000", n)
	}
	a, b := allocs(small), allocs(large)
	if a != b {
		t.Fatalf("prepare allocates %v times for a 2-instruction function and %v for a 1,000-instruction one", a, b)
	}
	t.Logf("prepare allocates %v times per function", a)
}

// TestPreparedRecordSizes pins the compact record layout: an operand is a
// slot index, a kind bit and one constant word; an instruction record holds
// its instruction, counter cell, operand offset and cost.
func TestPreparedRecordSizes(t *testing.T) {
	if s := unsafe.Sizeof(pOp{}); s > 16 {
		t.Errorf("pOp is %d B, want at most 16", s)
	}
	if s := unsafe.Sizeof(pInstr{}); s > 24 {
		t.Errorf("pInstr is %d B, want at most 24", s)
	}
}

// TestMachineSize pins the Machine inside the 224-B allocation size class:
// the next class is 240 B, so one more word costs every machine.New 16 B,
// and a cold compile sweep makes thousands of machines.
func TestMachineSize(t *testing.T) {
	if s := unsafe.Sizeof(Machine{}); s > 224 {
		t.Errorf("Machine is %d B, want at most 224", s)
	}
}

// TestEngineFloatViewsOfOperands: an operand's float view is a local's bits
// (whatever the local's kind), a float constant's value, or an integer or
// null constant converted. Both engines must read each of them, in float
// arithmetic, conversions, math and float compares.
func TestEngineFloatViewsOfOperands(t *testing.T) {
	p, _ := prog()
	const x, i = 2.5, 4 // the float and int parameters
	negZero := math.Copysign(0, -1)
	cases := []struct {
		name string
		emit func(b *ir.Builder, d, x, i ir.VarID)
		want int64
	}{
		{"fadd var int", func(b *ir.Builder, d, x, _ ir.VarID) {
			b.Binop(ir.OpFAdd, d, ir.Var(x), ir.ConstInt(3))
		}, fbits(5.5)},
		{"fsub int var", func(b *ir.Builder, d, x, _ ir.VarID) {
			b.Binop(ir.OpFSub, d, ir.ConstInt(-7), ir.Var(x))
		}, fbits(-9.5)},
		{"fmul var float", func(b *ir.Builder, d, x, _ ir.VarID) {
			b.Binop(ir.OpFMul, d, ir.Var(x), ir.ConstFloat(0.5))
		}, fbits(1.25)},
		{"fdiv var null", func(b *ir.Builder, d, x, _ ir.VarID) {
			b.Binop(ir.OpFDiv, d, ir.Var(x), ir.Null())
		}, fbits(math.Inf(1))},
		{"fadd int float", func(b *ir.Builder, d, _, _ ir.VarID) {
			b.Binop(ir.OpFAdd, d, ir.ConstInt(2), ir.ConstFloat(0.25))
		}, fbits(2.25)},
		{"fadd var intvar", func(b *ir.Builder, d, x, i ir.VarID) {
			b.Binop(ir.OpFAdd, d, ir.Var(x), ir.Var(i))
		}, fbits(x + math.Float64frombits(i))},
		{"fneg intvar", func(b *ir.Builder, d, _, i ir.VarID) {
			b.Unop(ir.OpFNeg, d, ir.Var(i))
		}, fbits(-math.Float64frombits(i))},
		{"fneg int", func(b *ir.Builder, d, _, _ ir.VarID) {
			b.Unop(ir.OpFNeg, d, ir.ConstInt(5))
		}, fbits(-5)},
		{"i2f int", func(b *ir.Builder, d, _, _ ir.VarID) {
			b.Unop(ir.OpIntToFloat, d, ir.ConstInt(-9))
		}, fbits(-9)},
		{"i2f intvar", func(b *ir.Builder, d, _, i ir.VarID) {
			b.Unop(ir.OpIntToFloat, d, ir.Var(i))
		}, fbits(i)},
		{"f2i int", func(b *ir.Builder, d, _, _ ir.VarID) {
			b.Unop(ir.OpFloatToInt, d, ir.ConstInt(42))
		}, 42},
		{"f2i float", func(b *ir.Builder, d, _, _ ir.VarID) {
			b.Unop(ir.OpFloatToInt, d, ir.ConstFloat(-3.75))
		}, -3},
		{"f2i null", func(b *ir.Builder, d, _, _ ir.VarID) {
			b.Unop(ir.OpFloatToInt, d, ir.Null())
		}, 0},
		{"math int", func(b *ir.Builder, d, _, _ ir.VarID) {
			b.Math(ir.MathSqrt, d, ir.ConstInt(16))
		}, fbits(4)},
		{"cmp var int", func(b *ir.Builder, d, x, _ ir.VarID) {
			b.Cmp(d, ir.CondLT, ir.Var(x), ir.ConstInt(3))
		}, 1},
		{"cmp int var", func(b *ir.Builder, d, x, _ ir.VarID) {
			b.Cmp(d, ir.CondGE, ir.ConstInt(2), ir.Var(x))
		}, 0},
		// An integer compare would see 2 against 2.0's bits.
		{"cmp int float", func(b *ir.Builder, d, _, _ ir.VarID) {
			b.Cmp(d, ir.CondEQ, ir.ConstInt(2), ir.ConstFloat(2))
		}, 1},
		// An integer compare would see 0 against -0.0's bits.
		{"cmp null float", func(b *ir.Builder, d, _, _ ir.VarID) {
			b.Cmp(d, ir.CondEQ, ir.Null(), ir.ConstFloat(negZero))
		}, 1},
		{"if var int", func(b *ir.Builder, d, x, _ ir.VarID) {
			floatIf(b, d, ir.Var(x), ir.ConstInt(3))
		}, 1},
		{"if int float", func(b *ir.Builder, d, _, _ ir.VarID) {
			floatIf(b, d, ir.ConstInt(2), ir.ConstFloat(2.5))
		}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := ir.NewFunc("fview", false)
			xv := b.Param("x", ir.KindFloat)
			iv := b.Param("i", ir.KindInt)
			b.Result(ir.KindInt)
			b.Block("entry")
			d := b.Temp(ir.KindInt)
			tc.emit(b, d, xv, iv)
			b.Return(ir.Var(d))
			fn := b.Finish()
			out, err := assertEnginesAgree(t, arch.IA32Win(), p, fn, 0,
				func(*Machine) []int64 { return []int64{fbits(x), i} })
			if err != nil {
				t.Fatal(err)
			}
			if out.Value != tc.want {
				t.Fatalf("got %d (%g as float), want %d (%g)", out.Value, bitsToF(out.Value),
					tc.want, bitsToF(tc.want))
			}
		})
	}
}

// floatIf sets d to 1 when a < b, through a conditional branch; a float
// constant or float local on either side makes it a float compare.
func floatIf(b *ir.Builder, d ir.VarID, a, c ir.Operand) {
	yes, no, join := b.DeclareBlock("yes"), b.DeclareBlock("no"), b.DeclareBlock("join")
	b.If(ir.CondLT, a, c, yes, no)
	b.SetBlock(yes)
	b.Move(d, ir.ConstInt(1))
	b.Jump(join)
	b.SetBlock(no)
	b.Move(d, ir.ConstInt(0))
	b.Jump(join)
	b.SetBlock(join)
}
