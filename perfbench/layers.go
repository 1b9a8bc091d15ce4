package main

import (
	"fmt"

	"trapnull/internal/arch"
	"trapnull/internal/ir"
	"trapnull/internal/jit"
	"trapnull/internal/machine"
	"trapnull/internal/rt"
	"trapnull/internal/workloads"
)

// The wrappers below are the only places the benchmark calls into a layer's
// public function; each one is a span.

func build(p *probe, w *workloads.Workload) (prog *ir.Program, entry *ir.Method) {
	p.do(spBuild, func() { prog, entry = w.Build() })
	return prog, entry
}

func ref(p *probe, w *workloads.Workload, n int64) (want int64) {
	p.do(spRef, func() { want = w.Ref(n) })
	return want
}

// cacheGet looks key up in cache, compiling prog with opts on a miss.
func cacheGet(p *probe, t *tally, cache *jit.Cache, key jit.CacheKey, prog *ir.Program,
	cfg jit.Config, model *arch.Model, opts jit.CompileOptions) (e *jit.CacheEntry, err error) {
	p.do(spCacheGet, func() {
		e, _, err = cache.GetOrCompile(key, false, func() (*jit.CacheEntry, error) {
			res, cerr := compile(p, t, prog, cfg, model, opts)
			if cerr != nil {
				return nil, cerr
			}
			return &jit.CacheEntry{Program: prog, Result: res}, nil
		})
	})
	return e, err
}

// compile runs the production pipeline and records the compile's latency.
func compile(p *probe, t *tally, prog *ir.Program, cfg jit.Config, model *arch.Model,
	opts jit.CompileOptions) (res *jit.Result, err error) {
	if p.tracing {
		t.instrsIn += programInstrs(prog)
	}
	d := p.timed(spCompile, func() { res, err = jit.CompileProgramWith(prog, cfg, model, opts) })
	if err != nil {
		return nil, err
	}
	t.compiled(d, res)
	if p.tracing {
		t.instrsOut += programInstrs(prog)
	}
	return res, nil
}

func programInstrs(prog *ir.Program) int64 {
	var n int64
	for _, m := range prog.Methods {
		if m.Fn != nil {
			n += int64(m.Fn.NumInstrs())
		}
	}
	return n
}

func newMachine(p *probe, model *arch.Model, prog *ir.Program) (m *machine.Machine) {
	p.do(spMachNew, func() { m = machine.New(model, prog) })
	return m
}

// engineSpan names the span of an untiered machine's calls.
func engineSpan(m *machine.Machine) spanName {
	if m.Engine == machine.EngineSwitch {
		return spCallSwitch
	}
	return spCallClosure
}

// run calls fn(n) on m inside span sp.
func run(p *probe, t *tally, m *machine.Machine, sp spanName, fn *ir.Func, n int64) (out machine.Outcome, err error) {
	before := m.Stats.Instrs
	p.do(sp, func() { out, err = m.Call(fn, n) })
	t.ran(sp, m.Stats.Instrs-before)
	return out, err
}

// call runs fn(n) on m inside span sp and checks that it returned want
// without an exception.
func call(p *probe, t *tally, m *machine.Machine, sp spanName, fn *ir.Func, n, want int64) error {
	out, err := run(p, t, m, sp, fn, n)
	if err != nil {
		return err
	}
	if out.Exc != rt.ExcNone {
		return fmt.Errorf("unexpected exception %v", out.Exc)
	}
	if out.Value != want {
		return mismatch("checksum", out.Value, want)
	}
	return nil
}

// entryFn resolves the entry method of a freshly built program in the
// compiled program the cache returned.
func entryFn(prog *ir.Program, entry *ir.Method) (*ir.Func, error) {
	em := prog.MethodByName(entry.QualifiedName())
	if em == nil || em.Fn == nil {
		return nil, fmt.Errorf("compiled program lacks entry method %s", entry.QualifiedName())
	}
	return em.Fn, nil
}

// size is a workload's problem size: full, or the test size in quick mode.
func size(w *workloads.Workload, quick bool) int64 {
	if quick {
		return w.TestN
	}
	return w.N
}

// guarded runs op, turning a panic into an error so one broken operation
// is counted as failed instead of ending the run.
func guarded(op func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return op()
}
