package machine

import (
	"errors"
	"math"
	"testing"

	"trapnull/internal/arch"
	"trapnull/internal/ir"
	"trapnull/internal/randprog"
	"trapnull/internal/rt"
)

// machineOn returns a fresh IA32 machine that runs the given way; on the
// eager side fns are compiled before any call.
func machineOn(s side, p *ir.Program, fns ...*ir.Func) *Machine {
	m := newOn(s, arch.IA32Win(), p)
	if s == eagerSide {
		for _, fn := range fns {
			precompile(m, fn)
		}
	}
	return m
}

// allSides is every way the reclamation tests run a machine.
var allSides = []side{switchSide, eagerSide, lazySide}

// TestReclaimSteadyState: a machine called again and again with an
// allocating program reuses the first call's words, so its heap stays at
// the first call's size, and every call charges the same cycles and
// returns the same checksum.
func TestReclaimSteadyState(t *testing.T) {
	p, fn := randprog.Generate(randprog.DefaultConfig(1))
	if holdsRefs(fn) {
		t.Fatalf("%s takes or returns a reference; the test needs a reclaimable entry", fn.Name)
	}
	for _, s := range allSides {
		m := machineOn(s, p, fn)
		var live int
		var first Outcome
		var firstCycles int64
		for k := range 21 {
			before := m.Cycles
			out, err := m.Call(fn, 5)
			if err != nil {
				t.Fatalf("%v call %d: %v", s, k, err)
			}
			if k == 0 {
				live, first, firstCycles = m.Heap.LiveWords(), out, m.Cycles-before
				if live == 0 {
					t.Fatalf("%v: the program allocates nothing", s)
				}
				continue
			}
			if got := m.Heap.LiveWords(); got != live {
				t.Fatalf("%v call %d: %d live words, want the first call's %d", s, k, got, live)
			}
			if out != first || m.Cycles-before != firstCycles {
				t.Fatalf("%v call %d: %+v in %d cycles, want %+v in %d", s, k, out, m.Cycles-before, first, firstCycles)
			}
		}
	}
}

// fillFn builds an int entry that allocates a one-element array, stores v
// there unless v is 0, runs extra and returns the array's element. Its
// array is the first allocation of each call.
func fillFn(name string, v int64, extra func(b *ir.Builder)) *ir.Func {
	b := ir.NewFunc(name, false)
	b.Result(ir.KindInt)
	b.Block("entry")
	a := b.Temp(ir.KindRef)
	b.NewArray(a, ir.ConstInt(1))
	if v != 0 {
		b.ArrayStore(a, ir.ConstInt(0), ir.ConstInt(v))
	}
	if extra != nil {
		extra(b)
	}
	r := b.Temp(ir.KindInt)
	b.ArrayLoad(r, a, ir.ConstInt(0))
	b.Return(ir.Var(r))
	return b.Finish()
}

// elem0 is the address of element 0 of the array at arr.
func elem0(arr int64) int64 { return arr + ir.ArrayHeaderBytes }

// TestReclaimedWordsReadZero: a call reuses the words an earlier call
// wrote, and the fresh array it allocates there reads zero.
func TestReclaimedWordsReadZero(t *testing.T) {
	p, _ := prog()
	write, read := fillFn("write", 42, nil), fillFn("read", 0, nil)
	for _, s := range allSides {
		m := machineOn(s, p, write, read)
		if out, err := m.Call(write); err != nil || out.Value != 42 {
			t.Fatalf("%v: write() = %+v, %v; want 42", s, out, err)
		}
		if v, _ := m.Heap.Peek(elem0(rt.HeapBase)); v != 42 {
			t.Fatalf("%v: after write() the heap reads %d, want 42 until the next call", s, v)
		}
		if out, err := m.Call(read); err != nil || out.Value != 0 {
			t.Fatalf("%v: read() = %+v, %v; want 0 from reused words", s, out, err)
		}
		if got := m.Heap.LiveWords(); got != 2 {
			t.Fatalf("%v: %d live words, want read() to reuse write()'s 2", s, got)
		}
	}
}

// TestReclaimKeepsReachableAllocations: a call whose allocations something
// outside may still reach keeps them. Each case's first call stores 42 in
// the array it allocates first; a second, reclaimable call then allocates
// and stores 99, which would land on that 42 had the first call's words
// been released.
func TestReclaimKeepsReachableAllocations(t *testing.T) {
	p, _ := prog()
	second := fillFn("second", 99, nil)
	refParam := func() *ir.Func {
		b := ir.NewFunc("refparam", false)
		b.Param("r", ir.KindRef)
		b.Result(ir.KindInt)
		b.Block("entry")
		a := b.Temp(ir.KindRef)
		b.NewArray(a, ir.ConstInt(1))
		b.ArrayStore(a, ir.ConstInt(0), ir.ConstInt(42))
		b.Return(ir.ConstInt(0))
		return b.Finish()
	}
	refResult := func() *ir.Func {
		b := ir.NewFunc("refresult", false)
		b.Result(ir.KindRef)
		b.Block("entry")
		a := b.Temp(ir.KindRef)
		b.NewArray(a, ir.ConstInt(1))
		b.ArrayStore(a, ir.ConstInt(0), ir.ConstInt(42))
		b.Return(ir.Var(a))
		return b.Finish()
	}
	// escapes raises ArithmeticException after the store.
	escapes := func() *ir.Func {
		return fillFn("escapes", 42, func(b *ir.Builder) {
			q := b.Temp(ir.KindInt)
			b.Binop(ir.OpDiv, q, ir.ConstInt(1), ir.ConstInt(0))
		})
	}
	// spins loops until its argument reaches zero after the store; the
	// test's step limit ends it first.
	spins := func() *ir.Func {
		b := ir.NewFunc("spins", false)
		n := b.Param("n", ir.KindInt)
		b.Result(ir.KindInt)
		entry := b.Block("entry")
		loop := b.DeclareBlock("loop")
		exit := b.DeclareBlock("exit")
		b.SetBlock(entry)
		a := b.Temp(ir.KindRef)
		b.NewArray(a, ir.ConstInt(1))
		b.ArrayStore(a, ir.ConstInt(0), ir.ConstInt(42))
		b.Jump(loop)
		b.SetBlock(loop)
		b.Binop(ir.OpSub, n, ir.Var(n), ir.ConstInt(1))
		b.If(ir.CondGT, ir.Var(n), ir.ConstInt(0), loop, exit)
		b.SetBlock(exit)
		b.Return(ir.ConstInt(0))
		return b.Finish()
	}
	cases := []struct {
		name string
		fn   *ir.Func
		args []int64
		// before runs before the first call; between runs after it and
		// checks its result.
		before  func(m *Machine)
		between func(t *testing.T, m *Machine, out Outcome, err error)
	}{
		{name: "ref-param", fn: refParam(), args: []int64{0}},
		{name: "ref-result", fn: refResult(), between: func(t *testing.T, _ *Machine, out Outcome, _ error) {
			if out.Value != rt.HeapBase {
				t.Fatalf("refresult() = %#x, want the heap's first array %#x", out.Value, rt.HeapBase)
			}
		}},
		{name: "escaped-exception", fn: escapes(), between: func(t *testing.T, m *Machine, out Outcome, _ error) {
			if out.Exc != rt.ExcArithmetic {
				t.Fatalf("escapes() = %+v, want ArithmeticException", out)
			}
			t.Cleanup(func() {
				if k := m.Heap.ExcKindOf(out.ExcRef); k != rt.ExcArithmetic {
					t.Errorf("after the next call ExcRef reads %v, want ArithmeticException", k)
				}
			})
		}},
		{name: "allocation-between-calls", fn: fillFn("plain", 42, nil), between: func(t *testing.T, m *Machine, _ Outcome, _ error) {
			arr := m.Heap.AllocArray(1)
			m.Heap.Store(elem0(arr), 7)
			t.Cleanup(func() {
				if v, _ := m.Heap.Peek(elem0(arr)); v != 7 {
					t.Errorf("the test's array reads %d after the next call, want 7", v)
				}
			})
		}},
		{name: "step-limit", fn: spins(), args: []int64{1_000_000},
			before: func(m *Machine) { m.MaxSteps = 50 },
			between: func(t *testing.T, m *Machine, _ Outcome, err error) {
				if !errors.Is(err, ErrStepLimit) {
					t.Fatalf("spins() error = %v, want the step limit", err)
				}
				m.MaxSteps = 1_000_000
			}},
	}
	for _, tc := range cases {
		for _, s := range allSides {
			t.Run(tc.name+"/"+s.String(), func(t *testing.T) {
				m := machineOn(s, p, tc.fn, second)
				if tc.before != nil {
					tc.before(m)
				}
				out, err := m.Call(tc.fn, tc.args...)
				if tc.between != nil {
					tc.between(t, m, out, err)
				} else if err != nil {
					t.Fatal(err)
				}
				if out, err := m.Call(second); err != nil || out.Value != 99 {
					t.Fatalf("second() = %+v, %v; want 99", out, err)
				}
				if v, _ := m.Heap.Peek(elem0(rt.HeapBase)); v != 42 {
					t.Fatalf("the first call's array reads %d after the next call, want 42", v)
				}
			})
		}
	}
}

// TestHugeNewArrayIsSimulationError: a newarray past the heap cap, or long
// enough to overflow the bump pointer, is refused before anything is
// allocated and ends the call with the same error on every engine.
func TestHugeNewArrayIsSimulationError(t *testing.T) {
	p, _ := prog()
	b := ir.NewFunc("huge", false)
	n := b.Param("n", ir.KindInt)
	b.Result(ir.KindInt)
	b.Block("entry")
	a := b.Temp(ir.KindRef)
	b.NewArray(a, ir.Var(n))
	b.Return(ir.ConstInt(0))
	f := b.Finish()
	for _, n := range []int64{rt.MaxWords, math.MaxInt64} {
		args := func(*Machine) []int64 { return []int64{n} }
		_, err := assertEnginesAgree(t, arch.IA32Win(), p, f, 0, args)
		if !errors.Is(err, ErrHeapFull) {
			t.Fatalf("newarray %d: error %v, want ErrHeapFull", n, err)
		}
		for _, s := range allSides {
			if _, m := runEngine(s, arch.IA32Win(), p, f, 0, args); m.Heap.LiveWords() != 0 {
				t.Fatalf("%v newarray %d: %d words allocated, want none", s, n, m.Heap.LiveWords())
			}
		}
	}
}

// TestExceptionWithoutHeapRoomIsSimulationError: a raise the heap has no
// room left to allocate the exception object for ends the call with the
// same error on every engine. The setup reserves all but one word of the
// heap, which the host backs lazily and the program never touches.
func TestExceptionWithoutHeapRoomIsSimulationError(t *testing.T) {
	p, _ := prog()
	b := ir.NewFunc("div", false)
	x := b.Param("x", ir.KindInt)
	b.Result(ir.KindInt)
	b.Block("entry")
	q := b.Temp(ir.KindInt)
	b.Binop(ir.OpDiv, q, ir.ConstInt(1), ir.Var(x))
	b.Return(ir.Var(q))
	f := b.Finish()
	_, err := assertEnginesAgree(t, arch.IA32Win(), p, f, 0, func(m *Machine) []int64 {
		m.Heap.AllocArray(rt.MaxWords - 2)
		return []int64{0}
	})
	if !errors.Is(err, ErrHeapFull) {
		t.Fatalf("error %v, want ErrHeapFull", err)
	}
}
