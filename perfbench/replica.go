package main

import (
	"fmt"
	"strings"

	"trapnull/internal/arch"
	"trapnull/internal/ir"
	"trapnull/internal/jit"
	"trapnull/internal/nullcheck"
	"trapnull/internal/opt"
)

// The pass replica compiles a program the way jit.CompileProgramWith does
// with default options, but calls each opt and nullcheck function itself so
// the traced compile-cold run gets one span per pass. It must follow the
// pass list of internal/jit pipeline.go exactly; checkReplica proves it does
// on every (program, configuration) pair before the traced run is timed.

// rpass is one replicated pipeline step; null bills its time to
// Times.NullCheckOpt as jit does.
type rpass struct {
	name spanName
	null bool
	run  func(f *ir.Func, res *jit.Result)
}

func replicaPipeline(cfg jit.Config, model *arch.Model) []rpass {
	trapModel := cfg.Phase2Model
	if trapModel == nil {
		trapModel = model
	}
	scalarModel := *model
	scalarModel.SpeculativeReads = model.SpeculativeReads && cfg.Speculation

	var ps []rpass
	add := func(name spanName, null bool, run func(*ir.Func, *jit.Result)) {
		ps = append(ps, rpass{name, null, run})
	}
	if cfg.Inline {
		budget := cfg.InlineBudget
		if budget == 0 {
			budget = opt.InlineBudget
		}
		add(spInline, false, func(f *ir.Func, res *jit.Result) { res.Inline.Add(opt.InlineWithBudget(f, model, budget)) })
	}
	if cfg.OtherOpts {
		add(spRotate, false, func(f *ir.Func, _ *jit.Result) { opt.RotateLoops(f) })
	}
	iters := cfg.Iterations
	if iters < 1 {
		iters = 1
	}
	for i := 0; i < iters; i++ {
		switch cfg.Algo {
		case jit.AlgoWhaley:
			add(spWhaley, true, func(f *ir.Func, res *jit.Result) { res.Checks.Add(nullcheck.Whaley(f)) })
		case jit.AlgoNew:
			add(spPhase1, true, func(f *ir.Func, res *jit.Result) { res.Checks.Add(nullcheck.Phase1(f)) })
		}
		if cfg.OtherOpts {
			add(spCopyProp, false, func(f *ir.Func, _ *jit.Result) { opt.CopyProp(f) })
			add(spConstFold, false, func(f *ir.Func, _ *jit.Result) { opt.ConstFold(f) })
			if cfg.LightScalar {
				add(spCSE, false, func(f *ir.Func, res *jit.Result) { res.Scalar.Add(opt.ScalarStats{CSE: opt.CSE(f)}) })
			} else {
				add(spBoundElim, false, func(f *ir.Func, res *jit.Result) { res.BoundChecksRemoved += opt.BoundCheckElim(f) })
				add(spScalar, false, func(f *ir.Func, res *jit.Result) { res.Scalar.Add(opt.ScalarReplace(f, &scalarModel)) })
			}
			add(spDCE, false, func(f *ir.Func, _ *jit.Result) { opt.DCE(f) })
		}
	}
	switch {
	case cfg.Phase2:
		add(spPhase2, true, func(f *ir.Func, res *jit.Result) { res.Checks.Add(nullcheck.Phase2(f, trapModel)) })
	case cfg.TrapConvert:
		add(spTrapConvert, true, func(f *ir.Func, res *jit.Result) { res.Checks.Implicit += nullcheck.ConvertToTraps(f, trapModel) })
	case cfg.TrapFold:
		add(spTrapFold, true, func(f *ir.Func, res *jit.Result) { res.Checks.Implicit += nullcheck.FoldAdjacentTraps(f, trapModel) })
	}
	// jit's "cleanup" pass, one span per function it calls.
	add(spCopyProp, false, func(f *ir.Func, _ *jit.Result) { opt.CopyProp(f) })
	add(spConstFold, false, func(f *ir.Func, _ *jit.Result) { opt.ConstFold(f) })
	add(spDCE, false, func(f *ir.Func, _ *jit.Result) { opt.DCE(f) })
	add(spSimplifyCFG, false, func(f *ir.Func, _ *jit.Result) { opt.SimplifyCFG(f) })
	return ps
}

// compileReplica compiles prog in place, method by method in program order
// as jit's serial compile does, recording a span per pass.
func compileReplica(p *probe, t *tally, prog *ir.Program, cfg jit.Config, model *arch.Model) (*jit.Result, error) {
	if p.tracing {
		t.instrsIn += programInstrs(prog)
	}
	res := &jit.Result{Config: cfg}
	passes := replicaPipeline(cfg, model)
	var err error
	d := p.timed(spCompile, func() { err = replicaMethods(p, prog, cfg, model, passes, res) })
	if err != nil {
		return nil, err
	}
	t.compiled(d, res)
	if p.tracing {
		t.instrsOut += programInstrs(prog)
	}
	return res, nil
}

func replicaMethods(p *probe, prog *ir.Program, cfg jit.Config, model *arch.Model, passes []rpass, res *jit.Result) error {
	for _, m := range prog.Methods {
		f := m.Fn
		if f == nil {
			continue
		}
		for _, ps := range passes {
			d := p.timed(ps.name, func() { ps.run(f, res) })
			if ps.null {
				res.Times.NullCheckOpt += d
			} else {
				res.Times.Other += d
			}
		}
		var err error
		p.do(spValidate, func() { err = ir.Validate(f) })
		if err != nil {
			return fmt.Errorf("%s: invalid after optimization: %w", m.QualifiedName(), err)
		}
		if !cfg.SkipGuardCheck {
			p.do(spCheckGuards, func() { err = nullcheck.CheckGuards(f, model) })
			if err != nil {
				return fmt.Errorf("%s: %w", m.QualifiedName(), err)
			}
		}
		res.FuncsCompiled++
	}
	p.do(spSites, func() {
		res.Checks.ExplicitRemaining = 0
		for _, m := range prog.Methods {
			if m.Fn == nil {
				continue
			}
			res.Checks.ExplicitRemaining += m.Fn.CountOp(ir.OpNullCheck)
			ord := int32(0)
			for _, b := range m.Fn.Blocks {
				for _, in := range b.Instrs {
					if in.ExcSite {
						ord++
						in.TrapSite = ord
					}
				}
			}
		}
	})
	return nil
}

// dumpProgram prints every compiled method body plus its trap-site
// numbering, the parts of a compile that execution depends on.
func dumpProgram(prog *ir.Program) string {
	var sb strings.Builder
	for _, m := range prog.Methods {
		if m.Fn == nil {
			continue
		}
		sb.WriteString(m.QualifiedName())
		sb.WriteString(":\n")
		sb.WriteString(m.Fn.String())
		sb.WriteString("trap sites:")
		for _, b := range m.Fn.Blocks {
			for _, in := range b.Instrs {
				if in.TrapSite != 0 {
					fmt.Fprintf(&sb, " %d", in.TrapSite)
				}
			}
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// staticCounts is the part of a jit.Result that does not depend on timing.
func staticCounts(r *jit.Result) string {
	return fmt.Sprintf("%+v %+v %+v bounds=%d funcs=%d", r.Checks, r.Inline, r.Scalar, r.BoundChecksRemoved, r.FuncsCompiled)
}

// checkReplica compiles every cell's program once with jit.CompileProgram
// and once with the replica and requires identical IR and static counts.
func (s *compileCold) checkReplica() error {
	p, t := newProbe(false), newTally()
	for _, c := range s.cells {
		want, _ := c.generate(p)
		wantRes, err := jit.CompileProgram(want, c.cfg, c.model)
		if err != nil {
			return fmt.Errorf("%s: %w", c, err)
		}
		got, _ := c.generate(p)
		gotRes, err := compileReplica(p, t, got, c.cfg, c.model)
		if err != nil {
			return fmt.Errorf("%s: replica: %w", c, err)
		}
		if dumpProgram(got) != dumpProgram(want) {
			return fmt.Errorf("%s: the pass replica's IR differs from jit.CompileProgram's", c)
		}
		if g, w := staticCounts(gotRes), staticCounts(wantRes); g != w {
			return fmt.Errorf("%s: the pass replica's counts %s differ from jit.CompileProgram's %s", c, g, w)
		}
	}
	return nil
}
