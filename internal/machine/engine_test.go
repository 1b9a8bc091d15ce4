package machine

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"

	"trapnull/internal/arch"
	"trapnull/internal/ir"
)

// side is one way the differential tests run a function.
type side uint8

const (
	switchSide side = iota // the reference switch interpreter
	eagerSide              // the closure engine, every body compiled before the call
	lazySide               // the closure engine, compiling a body once it turns hot
)

func (s side) String() string { return [...]string{"switch", "eager", "lazy"}[s] }

// observed is everything a run shows: outcome, error, stats, cycles.
type observed struct {
	out    Outcome
	err    error
	stats  ExecStats
	cycles int64
}

func (o observed) String() string {
	return fmt.Sprintf("out=%+v err=%v stats=%+v cycles=%d", o.out, o.err, o.stats, o.cycles)
}

// same reports whether two runs are indistinguishable (errors by text).
func (o observed) same(p observed) bool {
	return o.out == p.out && o.stats == p.stats && o.cycles == p.cycles &&
		(o.err == nil) == (p.err == nil) && (o.err == nil || o.err.Error() == p.err.Error())
}

// runEngine executes fn on a fresh machine run the given way and returns
// what it observed and the machine. setup (when non-nil) sees the machine
// before anything is compiled and returns the call's arguments.
func runEngine(s side, a *arch.Model, p *ir.Program, fn *ir.Func, maxSteps int64,
	setup func(m *Machine) []int64) (observed, *Machine) {
	m := New(a, p)
	m.Engine = EngineClosure
	if s == switchSide {
		m.Engine = EngineSwitch
	}
	if maxSteps > 0 {
		m.MaxSteps = maxSteps
	}
	var args []int64
	if setup != nil {
		args = setup(m)
	}
	if s == eagerSide {
		precompile(m, fn)
	}
	out, err := m.Call(fn, args...)
	return observed{out, err, m.Stats, m.Cycles}, m
}

// precompile compiles every program method on m and fn, which may be a
// bare body outside the program.
func precompile(m *Machine, fn *ir.Func) {
	m.PrecompileClosures()
	m.compiled(fn)
}

// call is m.Call for the tests that run one machine on the process's
// default engine (TRAPNULL_ENGINE): on an untiered closure-engine machine
// it precompiles first, so their short calls run closure code rather than
// only the interpreter a cold function starts in.
func call(m *Machine, fn *ir.Func, args ...int64) (Outcome, error) {
	if m.Engine == EngineClosure && m.tier == nil {
		precompile(m, fn)
	}
	return m.Call(fn, args...)
}

// assertEnginesAgree runs fn on every side and fails unless every
// observable — Outcome, error, ExecStats, Cycles — is identical, or unless
// the eager side's call ran in the closure engine. It returns the (shared)
// outcome and error for further assertions.
func assertEnginesAgree(t *testing.T, a *arch.Model, p *ir.Program, fn *ir.Func, maxSteps int64,
	setup func(m *Machine) []int64) (Outcome, error) {
	t.Helper()
	ref, _ := runEngine(switchSide, a, p, fn, maxSteps, setup)
	for _, s := range []side{eagerSide, lazySide} {
		got, m := runEngine(s, a, p, fn, maxSteps, setup)
		if !got.same(ref) {
			t.Fatalf("%v diverges from switch:\n%-6v %v\nswitch %v", s, s, got, ref)
		}
		if s == eagerSide && m.ClosureRuns() == 0 {
			t.Fatal("eager side never entered the closure engine")
		}
	}
	return ref.out, ref.err
}

// spinFn builds an infinite counting loop whose loop block is one charged
// stretch (add; add; if), so the step limit must be enforced by the
// interpreter the stretch guard hands the block to, not just the stretch
// charge.
func spinFn() *ir.Func {
	b := ir.NewFunc("spin", false)
	b.Result(ir.KindInt)
	entry := b.Block("entry")
	loop := b.DeclareBlock("loop")
	b.SetBlock(entry)
	x := b.Local("x", ir.KindInt)
	b.Move(x, ir.ConstInt(0))
	b.Jump(loop)
	b.SetBlock(loop)
	b.Binop(ir.OpAdd, x, ir.Var(x), ir.ConstInt(1))
	b.Binop(ir.OpAdd, x, ir.Var(x), ir.ConstInt(0))
	b.If(ir.CondGE, ir.Var(x), ir.ConstInt(0), loop, loop)
	return b.Finish()
}

// boundedFn builds a loop that terminates after n iterations; its loop body
// is batchable, so exact step accounting under batching is observable via
// Stats.Instrs when the limit is NOT hit.
func boundedFn() *ir.Func {
	b := ir.NewFunc("bounded", false)
	n := b.Param("n", ir.KindInt)
	b.Result(ir.KindInt)
	entry := b.Block("entry")
	loop := b.DeclareBlock("loop")
	exit := b.DeclareBlock("exit")
	b.SetBlock(entry)
	i := b.Local("i", ir.KindInt)
	b.Move(i, ir.ConstInt(0))
	b.Jump(loop)
	b.SetBlock(loop)
	b.Binop(ir.OpAdd, i, ir.Var(i), ir.ConstInt(1))
	b.If(ir.CondLT, ir.Var(i), ir.Var(n), loop, exit)
	b.SetBlock(exit)
	b.Return(ir.Var(i))
	return b.Finish()
}

// TestEngineStepLimitBoundary pins the batching fix for ErrStepLimit: the
// closure engine must fire the limit at the same dynamic instruction count
// as the reference engine — at the exact boundary and one step to either
// side — even though it normally charges whole blocks at once.
func TestEngineStepLimitBoundary(t *testing.T) {
	p, _ := prog()
	fn := boundedFn()

	// Establish the exact dynamic instruction count of bounded(25).
	m := New(arch.IA32Win(), p)
	if _, err := m.Call(fn, 25); err != nil {
		t.Fatal(err)
	}
	total := m.Stats.Instrs

	for _, d := range []int64{-1, 0, +1} {
		limit := total + d
		out, err := assertEnginesAgree(t, arch.IA32Win(), p, fn, limit,
			func(m *Machine) []int64 { return []int64{25} })
		if d < 0 {
			if !errors.Is(err, ErrStepLimit) {
				t.Fatalf("limit=%d (one under): err = %v, want ErrStepLimit", limit, err)
			}
		} else {
			if err != nil {
				t.Fatalf("limit=%d: unexpected error %v", limit, err)
			}
			if out.Value != 25 {
				t.Fatalf("limit=%d: value = %d, want 25", limit, out.Value)
			}
		}
	}

	// The infinite batchable loop must report the limit with identical
	// wording and at an identical steps count on both engines.
	spin := spinFn()
	_, err := assertEnginesAgree(t, arch.IA32Win(), p, spin, 10_000, nil)
	if !errors.Is(err, ErrStepLimit) {
		t.Fatalf("spin: err = %v, want ErrStepLimit", err)
	}
}

// TestEngineStepLimitInsideBatchableBlock places the limit in the middle of
// a batchable block: the closure engine must hand the block to the
// interpreter and stop mid-block exactly where the reference does, with
// Stats.Instrs reflecting only the instructions that actually ran.
func TestEngineStepLimitInsideBatchableBlock(t *testing.T) {
	p, _ := prog()
	b := ir.NewFunc("straight", false)
	b.Result(ir.KindInt)
	b.Block("entry")
	x := b.Local("x", ir.KindInt)
	b.Move(x, ir.ConstInt(1))
	b.Binop(ir.OpAdd, x, ir.Var(x), ir.ConstInt(2))
	b.Binop(ir.OpAdd, x, ir.Var(x), ir.ConstInt(3))
	b.Binop(ir.OpAdd, x, ir.Var(x), ir.ConstInt(4))
	b.Return(ir.Var(x))
	fn := b.Finish() // 5 instructions, one block, batchable

	for limit := int64(1); limit <= 6; limit++ {
		out, err := assertEnginesAgree(t, arch.IA32Win(), p, fn, limit, nil)
		if limit < 5 {
			if !errors.Is(err, ErrStepLimit) {
				t.Fatalf("limit=%d: err = %v, want ErrStepLimit", limit, err)
			}
		} else if err != nil || out.Value != 10 {
			t.Fatalf("limit=%d: out=%+v err=%v, want 10", limit, out, err)
		}
	}
}

// TestEngineFloatLocalThroughIntOp reads a float-kinded local through an
// integer operand path (the reference's val() returns the raw bits). The
// closure engine's shape specialization must preserve that bit-level view.
func TestEngineFloatLocalThroughIntOp(t *testing.T) {
	p, _ := prog()
	b := ir.NewFunc("fbitsadd", false)
	x := b.Param("x", ir.KindFloat)
	b.Result(ir.KindInt)
	b.Block("entry")
	v := b.Temp(ir.KindInt)
	// Integer add of a float local: operates on the IEEE bits, not the value.
	b.Binop(ir.OpAdd, v, ir.Var(x), ir.ConstInt(1))
	b.Return(ir.Var(v))
	fn := b.Finish()

	out, err := assertEnginesAgree(t, arch.IA32Win(), p, fn, 0,
		func(m *Machine) []int64 { return []int64{fbits(2.5)} })
	if err != nil {
		t.Fatal(err)
	}
	if want := fbits(2.5) + 1; out.Value != want {
		t.Fatalf("got %d, want raw bits %d", out.Value, want)
	}
}

// TestEngineShiftAmounts pins the 6-bit shift-count masking across engines
// for amounts at and beyond 64, including via constants (which the closure
// engine folds at compile time).
func TestEngineShiftAmounts(t *testing.T) {
	p, _ := prog()
	for _, shift := range []int64{63, 64, 65, 127, 128, -1} {
		for _, op := range []ir.Op{ir.OpShl, ir.OpShr} {
			b := ir.NewFunc(fmt.Sprintf("sh_%d_%s", shift, op), false)
			x := b.Param("x", ir.KindInt)
			s := b.Param("s", ir.KindInt)
			b.Result(ir.KindInt)
			b.Block("entry")
			v := b.Temp(ir.KindInt)
			b.Binop(op, v, ir.Var(x), ir.Var(s)) // var/var shape
			w := b.Temp(ir.KindInt)
			b.Binop(op, w, ir.Var(v), ir.ConstInt(shift)) // var/const shape
			u := b.Temp(ir.KindInt)
			b.Binop(op, u, ir.ConstInt(-8), ir.ConstInt(shift)) // folded shape
			r := b.Temp(ir.KindInt)
			b.Binop(ir.OpXor, r, ir.Var(w), ir.Var(u))
			b.Return(ir.Var(r))
			fn := b.Finish()
			if _, err := assertEnginesAgree(t, arch.IA32Win(), p, fn, 0,
				func(m *Machine) []int64 { return []int64{-7, shift} }); err != nil {
				t.Fatalf("shift=%d op=%s: %v", shift, op, err)
			}
		}
	}
}

// TestEngineDivByZeroMidBlock raises ArithmeticException in the middle of a
// multi-instruction block inside a try region: the pending raise must skip
// the rest of the block and land in the handler with identical accounting.
// Also pins that div-by-zero does NOT count as ThrownSoftware (the reference
// increments it only for explicit checks, bound checks, and OpThrow).
func TestEngineDivByZeroMidBlock(t *testing.T) {
	p, _ := prog()
	for _, op := range []ir.Op{ir.OpDiv, ir.OpRem} {
		b := ir.NewFunc("mid_"+op.String(), false)
		y := b.Param("y", ir.KindInt)
		b.Result(ir.KindInt)
		entry := b.Block("entry")
		handler := b.DeclareBlock("handler")
		exc := b.Local("exc", ir.KindRef)
		b.SetBlock(entry)
		a := b.Local("a", ir.KindInt)
		b.Move(a, ir.ConstInt(100))
		v := b.Temp(ir.KindInt)
		b.Binop(op, v, ir.Var(a), ir.Var(y))
		// Instructions after the faulting div must NOT run when y == 0.
		b.Binop(ir.OpAdd, a, ir.Var(a), ir.ConstInt(1000))
		b.Return(ir.Var(a))
		b.SetBlock(handler)
		b.Return(ir.ConstInt(-1))
		f := b.F
		r := f.NewRegion(handler, exc)
		entry.Try = r.ID
		f.RecomputeEdges()
		if err := ir.Validate(f); err != nil {
			t.Fatal(err)
		}

		out, err := assertEnginesAgree(t, arch.IA32Win(), p, f, 0,
			func(m *Machine) []int64 { return []int64{0} })
		if err != nil || out.Value != -1 {
			t.Fatalf("%s by zero: out=%+v err=%v, want handler -1", op, out, err)
		}
		// And the non-faulting path.
		out, err = assertEnginesAgree(t, arch.IA32Win(), p, f, 0,
			func(m *Machine) []int64 { return []int64{7} })
		if err != nil || out.Value != 1100 {
			t.Fatalf("%s no fault: out=%+v err=%v, want 1100", op, out, err)
		}
	}
}

// TestEngineRecursiveCallScratch pins the per-closure scratch argument
// buffer against recursion: fib(12) re-enters the same call closure many
// times and must still compute correct arguments at every depth.
func TestEngineRecursiveCallScratch(t *testing.T) {
	p, _ := prog()
	b := ir.NewFunc("fib", false)
	n := b.Param("n", ir.KindInt)
	b.Result(ir.KindInt)
	meth := p.AddMethod(nil, "fib", nil, false)
	entry := b.Block("entry")
	rec := b.DeclareBlock("rec")
	base := b.DeclareBlock("base")
	b.SetBlock(entry)
	b.If(ir.CondLT, ir.Var(n), ir.ConstInt(2), base, rec)
	b.SetBlock(base)
	b.Return(ir.Var(n))
	b.SetBlock(rec)
	n1 := b.Temp(ir.KindInt)
	b.Binop(ir.OpSub, n1, ir.Var(n), ir.ConstInt(1))
	a := b.Temp(ir.KindInt)
	b.CallStatic(a, meth, ir.Var(n1))
	n2 := b.Temp(ir.KindInt)
	b.Binop(ir.OpSub, n2, ir.Var(n), ir.ConstInt(2))
	c := b.Temp(ir.KindInt)
	b.CallStatic(c, meth, ir.Var(n2))
	s := b.Temp(ir.KindInt)
	b.Binop(ir.OpAdd, s, ir.Var(a), ir.Var(c))
	b.Return(ir.Var(s))
	fn := b.Finish()
	meth.Fn = fn

	out, err := assertEnginesAgree(t, arch.IA32Win(), p, fn, 0,
		func(m *Machine) []int64 { return []int64{12} })
	if err != nil || out.Value != 144 {
		t.Fatalf("fib(12) = %+v err=%v, want 144", out, err)
	}
}

// TestResetPrepared empties the per-function table explicitly and proves the
// next Call prepares the function again with its hot countdown restarted: a
// function compiled by a hot call is interpreted again after the reset, and
// one short call leaves it uncompiled with its countdown down by that
// call's block entries only.
func TestResetPrepared(t *testing.T) {
	p, _ := prog()
	m := New(arch.IA32Win(), p)
	m.Engine = EngineClosure // compiled code is only built on the closure engine
	fn := boundedFn()
	if out, err := m.Call(fn, 3*hotBlockEntries); err != nil || out.Value != 3*hotBlockEntries {
		t.Fatalf("hot call: out=%+v err=%v", out, err)
	}
	first := m.fns[fn]
	if len(m.fns) != 1 || first == nil || first.pf == nil || first.cf == nil {
		t.Fatalf("table not populated: len=%d entry=%+v", len(m.fns), first)
	}
	m.ResetPrepared()
	if len(m.fns) != 0 {
		t.Fatalf("table not emptied: len=%d", len(m.fns))
	}
	runs := m.ClosureRuns()
	out, err := m.Call(fn, 5)
	if err != nil || out.Value != 5 {
		t.Fatalf("after reset: out=%+v err=%v", out, err)
	}
	again := m.fns[fn]
	if len(m.fns) != 1 || again == nil || again == first || again.pf == first.pf || again.cf != nil {
		t.Fatalf("Call after reset did not re-prepare: len=%d entry=%+v", len(m.fns), again)
	}
	// entry + 5 loop entries + exit.
	if want := int64(hotBlockEntries - 7); again.countdown != want || m.ClosureRuns() != runs {
		t.Fatalf("countdown %d and %d new closure runs after reset, want %d and none",
			again.countdown, m.ClosureRuns()-runs, want)
	}
}

// TestEngineByName pins the selection surface TRAPNULL_ENGINE uses.
func TestEngineByName(t *testing.T) {
	for _, tc := range []struct {
		name string
		want Engine
		ok   bool
	}{
		{"", EngineClosure, true},
		{"closure", EngineClosure, true},
		{"switch", EngineSwitch, true},
		{"Switch", EngineClosure, false},
		{"bogus", EngineClosure, false},
	} {
		e, err := EngineByName(tc.name)
		if (err == nil) != tc.ok || e != tc.want {
			t.Fatalf("EngineByName(%q) = %v, %v; want %v ok=%v", tc.name, e, err, tc.want, tc.ok)
		}
	}
	if EngineClosure.String() != "closure" || EngineSwitch.String() != "switch" {
		t.Fatal("Engine.String mismatch")
	}
}

// TestEngineFromEnvRejectsUnknown: a TRAPNULL_ENGINE value EngineByName
// rejects stops the process at start-up with that error instead of falling
// back to the closure engine. The test binary is re-run with a misspelt
// value; it must exit non-zero before running any test.
func TestEngineFromEnvRejectsUnknown(t *testing.T) {
	for _, val := range []string{"Switch", "bogus"} {
		cmd := exec.Command(os.Args[0], "-test.run=^$")
		cmd.Env = append(os.Environ(), "TRAPNULL_ENGINE="+val)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("TRAPNULL_ENGINE=%s: err=%v, want exit status 2\n%s", val, err, out)
		}
		_, want := EngineByName(val)
		if !strings.Contains(string(out), want.Error()) {
			t.Fatalf("TRAPNULL_ENGINE=%s: output %q lacks %q", val, out, want)
		}
	}
}
