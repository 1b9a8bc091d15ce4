package machine

import (
	"slices"
	"testing"

	"trapnull/internal/arch"
	"trapnull/internal/ir"
	"trapnull/internal/jit"
	"trapnull/internal/randprog"
)

// compiledFuncs counts the functions that have closure code on m.
func compiledFuncs(m *Machine) int {
	n := 0
	for _, e := range m.fns {
		if e.cf != nil {
			n++
		}
	}
	return n
}

// TestOneShotRandprogCompilesNothing: a generated program run once at the
// small size spends no function's hot countdown, so the closure engine
// interprets it throughout and compiles nothing. The programs are the
// randprog cells of the compile-cold benchmark for its seeds 1 and 424242
// (program seeds seed*100000+1 ... +400), each as generated and as compiled
// under every Windows and AIX configuration.
func TestOneShotRandprogCompilesNothing(t *testing.T) {
	platforms := []struct {
		model   *arch.Model
		configs []jit.Config
	}{{arch.IA32Win(), jit.WindowsConfigs()}, {arch.PPCAIX(), jit.AIXConfigs()}}
	// The check is single-goroutine, so the race detector adds nothing to
	// it; a -race run samples every eighth seed.
	stride := int64(1)
	if raceEnabled {
		stride = 8
	}
	for _, base := range []int64{1, 424242} {
		for i := int64(1); i <= 400; i += stride {
			seed := base*100_000 + i
			for _, pl := range platforms {
				for c := -1; c < len(pl.configs); c++ {
					p, fn := randprog.Generate(randprog.DefaultConfig(seed))
					name := "as generated"
					if c >= 0 {
						name = pl.configs[c].Name
						if _, err := jit.CompileProgram(p, pl.configs[c], pl.model); err != nil {
							t.Fatalf("seed %d, %s: %v", seed, name, err)
						}
					}
					m := New(pl.model, p)
					m.Engine = EngineClosure
					if _, err := m.Call(fn, 5); err != nil {
						t.Fatalf("seed %d on %s, %s: %v", seed, pl.model.Name, name, err)
					}
					if n := compiledFuncs(m); n != 0 || m.ClosureRuns() != 0 {
						t.Fatalf("seed %d on %s, %s: one call compiled %d functions and made %d closure runs, want none",
							seed, pl.model.Name, name, n, m.ClosureRuns())
					}
				}
			}
		}
	}
}

// TestHotLoopHandsOverMidInvocation: a loop that crosses the countdown
// inside one invocation is handed to the closure engine at the block entry
// where the countdown expires. Outcome, stats, cycles and block counts
// equal the switch engine's at step limits on both sides of the handover,
// and a limit past the handover, which hands the compiled function back to
// the interpreter, leaves the spent countdown at zero.
func TestHotLoopHandsOverMidInvocation(t *testing.T) {
	p := ir.NewProgram("t")
	fn := loopFunc()
	const n = 3000 // entry + n body entries + exit: crosses hotBlockEntries
	lazy := func(limit int64) (observed, []int64, *Machine) {
		return profiledCall(lazySide, p, fn, limit, nil, n)
	}
	full, _, _ := profiledCall(switchSide, p, fn, 0, nil, n)
	total := full.stats.Instrs

	// h is the smallest limit whose run reaches the handover.
	lo, hi := int64(1), total
	for lo < hi {
		mid := (lo + hi) / 2
		if _, _, m := lazy(mid); m.ClosureRuns() > 0 {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	h := lo
	// The countdown expires on body entry hotBlockEntries-1, after the
	// entry block's three instructions and three per body run before it.
	if want := int64(3 + 3*(hotBlockEntries-2)); h != want || h >= total {
		t.Fatalf("handover at step %d of %d, want %d", h, total, want)
	}

	limits := []int64{0, 1, h / 2, total, total + 1}
	for d := int64(-3); d <= 3; d++ {
		limits = append(limits, h+d)
	}
	for _, limit := range limits {
		ref, refProf, _ := profiledCall(switchSide, p, fn, limit, nil, n)
		got, gotProf, m := lazy(limit)
		if !got.same(ref) {
			t.Fatalf("limit %d: lazy diverges from switch:\nlazy   %v\nswitch %v", limit, got, ref)
		}
		if !slices.Equal(gotProf, refProf) {
			t.Fatalf("limit %d: block counts diverge: lazy %v, switch %v", limit, gotProf, refProf)
		}
		e := m.fns[fn]
		handed := limit == 0 || limit >= h
		if handed != (m.ClosureRuns() == 1) || handed != (e.cf != nil) {
			t.Fatalf("limit %d (handover at %d): %d closure runs, code %v", limit, h, m.ClosureRuns(), e.cf != nil)
		}
		if handed && e.countdown != 0 {
			t.Fatalf("limit %d: countdown %d after the handover, want 0", limit, e.countdown)
		}
	}
}

// TestCompiledCallerColdThenHotCallee: compiled code calls a callee that
// is interpreted until its own countdown expires (one block per call, so
// during call hotBlockEntries), then runs compiled: the call site runs
// the callee's code once it exists. With a lazily compiled caller the
// caller's own handover comes first. Both agree with the switch engine.
func TestCompiledCallerColdThenHotCallee(t *testing.T) {
	p, _ := prog()
	cb := ir.NewFunc("inc", false)
	x := cb.Param("x", ir.KindInt)
	cb.Result(ir.KindInt)
	cb.Block("entry")
	y := cb.Temp(ir.KindInt)
	cb.Binop(ir.OpAdd, y, ir.Var(x), ir.ConstInt(1))
	cb.Return(ir.Var(y))
	inc := p.AddMethod(nil, "inc", cb.Finish(), false)

	b := ir.NewFunc("calls", false)
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
	b.CallStatic(s, inc, ir.Var(s))
	b.Binop(ir.OpAdd, i, ir.Var(i), ir.ConstInt(1))
	b.If(ir.CondLT, ir.Var(i), ir.Var(n), body, exit)
	b.SetBlock(exit)
	b.Return(ir.Var(s))
	fn := b.Finish()
	p.AddMethod(nil, "calls", fn, false)

	const calls = 3000
	ref, refProf, _ := profiledCall(switchSide, p, fn, 0, nil, calls)
	if ref.err != nil || ref.out.Value != calls {
		t.Fatalf("switch: %v, want %d", ref, calls)
	}
	for _, eager := range []bool{true, false} {
		var before func(*Machine)
		if eager {
			before = func(m *Machine) { m.compiled(fn) }
		}
		got, gotProf, m := profiledCall(lazySide, p, fn, 0, before, calls)
		if !got.same(ref) || !slices.Equal(gotProf, refProf) {
			t.Fatalf("eager caller %v: diverges from switch:\nclosure %v %v\nswitch  %v %v", eager, got, gotProf, ref, refProf)
		}
		if m.fns[inc.Fn].cf == nil {
			t.Fatalf("eager caller %v: the callee never compiled", eager)
		}
		// The caller's entry (eager) or handover (lazy), the callee's
		// handover during call hotBlockEntries, and every later call.
		if want := int64(1 + 1 + calls - hotBlockEntries); m.ClosureRuns() != want {
			t.Fatalf("eager caller %v: %d closure runs, want %d", eager, m.ClosureRuns(), want)
		}
	}
}
