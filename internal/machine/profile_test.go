package machine

import (
	"testing"

	"trapnull/internal/arch"
	"trapnull/internal/ir"
	"trapnull/internal/obs"
)

// loopFunc builds: sum(n) { s=0; i=0; do { s+=i; i++ } while (i<n); return s }
func loopFunc() *ir.Func {
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
	return b.Finish()
}

// profiledCall runs fn the given way, as runEngine does, with a profile
// attached and before (when non-nil) shown the machine ahead of the call.
// It returns what the run observed, fn's block-entry counters and the
// machine.
func profiledCall(s side, p *ir.Program, fn *ir.Func, limit int64, before func(*Machine), args ...int64) (observed, []int64, *Machine) {
	o, m := runEngine(s, arch.IA32Win(), p, fn, limit, func(m *Machine) []int64 {
		m.Profile = obs.NewExecProfile()
		if before != nil {
			before(m)
		}
		return args
	})
	return o, m.Profile.Counters(fn), m
}

// profiledRun executes fn(arg) run the given way with a fresh profile
// attached and returns the per-block counters.
func profiledRun(t *testing.T, s side, fn *ir.Func, arg int64) []int64 {
	t.Helper()
	o, c, _ := profiledCall(s, ir.NewProgram("t"), fn, 0, nil, arg)
	if o.err != nil {
		t.Fatalf("call: %v", o.err)
	}
	return c
}

// TestExecProfileCounts pins the block-entry semantics: the loop body is
// entered once per iteration, entry and exit exactly once.
func TestExecProfileCounts(t *testing.T) {
	fn := loopFunc()
	byName := map[string]int{}
	for _, b := range fn.Blocks {
		byName[b.Name] = b.ID
	}
	for _, s := range []side{switchSide, eagerSide, lazySide} {
		c := profiledRun(t, s, fn, 10)
		if got := c[byName["entry"]]; got != 1 {
			t.Errorf("%v: entry entered %d times, want 1", s, got)
		}
		if got := c[byName["body"]]; got != 10 {
			t.Errorf("%v: body entered %d times, want 10", s, got)
		}
		if got := c[byName["exit"]]; got != 1 {
			t.Errorf("%v: exit entered %d times, want 1", s, got)
		}
	}
}

// TestExecProfileEnginesAgree pins that block-entry counts are a semantic
// observable: the closure compiler and the reference switch interpreter must
// produce identical counters for every block.
func TestExecProfileEnginesAgree(t *testing.T) {
	fn := loopFunc()
	swi := profiledRun(t, switchSide, fn, 37)
	for _, s := range []side{eagerSide, lazySide} {
		closure := profiledRun(t, s, fn, 37)
		if len(closure) != len(swi) {
			t.Fatalf("counter lengths differ: %v %d, switch %d", s, len(closure), len(swi))
		}
		for id := range closure {
			if closure[id] != swi[id] {
				t.Errorf("block %d: %v counted %d, switch %d", id, s, closure[id], swi[id])
			}
		}
	}
}

// TestExecProfileDisabled pins the zero-cost-off contract at the API level:
// a machine without a profile runs normally and records nothing.
func TestExecProfileDisabled(t *testing.T) {
	fn := loopFunc()
	p := ir.NewProgram("t")
	m := New(arch.IA32Win(), p)
	out, err := m.Call(fn, 5)
	if err != nil {
		t.Fatalf("call: %v", err)
	}
	if out.Value != 10 {
		t.Errorf("sum(5) = %d, want 10", out.Value)
	}
	if m.Profile != nil {
		t.Error("machine grew a profile it was never given")
	}
}
