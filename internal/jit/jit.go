// Package jit assembles the paper's compilation pipelines: which null check
// algorithm runs, whether hardware traps are exploited, how many times
// phase 1 iterates with the other optimizations (Figure 2), and — for the
// AIX experiments — whether reads may be speculated and whether the
// spec-violating Intel phase 2 is forced ("Illegal Implicit"). It also
// accounts compile time per phase family, which Tables 3–5 report.
package jit

import (
	"fmt"
	"time"

	"trapnull/internal/arch"
	"trapnull/internal/ir"
	"trapnull/internal/nullcheck"
	"trapnull/internal/obs"
	"trapnull/internal/opt"
)

// Algo selects the null check elimination algorithm.
type Algo uint8

const (
	// AlgoNone disables null check elimination entirely.
	AlgoNone Algo = iota
	// AlgoWhaley is the previous best algorithm (§2.2): forward analysis
	// elimination only.
	AlgoWhaley
	// AlgoNew is the paper's phase 1 (and, when Phase2 is set, phase 2).
	AlgoNew
)

// Config describes one JIT configuration — one row of the paper's tables.
type Config struct {
	Name string

	// Inline enables devirtualization + method inlining before the null
	// check optimizations. InlineBudget overrides the default callee size
	// limit when non-zero (the HotSpot comparator inlines more).
	Inline       bool
	InlineBudget int

	Algo Algo
	// Iterations is how many times the null check algorithm iterates with
	// the other optimizations (Figure 2's loop); minimum 1.
	Iterations int
	// OtherOpts enables bounds check elimination, scalar replacement, copy
	// propagation and DCE in each iteration.
	OtherOpts bool
	// LightScalar restricts scalar replacement to block-local CSE and skips
	// bounds check elimination — the profile of the simulated HotSpot
	// comparator (big inliner, heavy pipeline, no iterated loop machinery).
	LightScalar bool

	// TrapFold folds a check into an immediately following trapping
	// dereference — the pre-paper implicit check lowering used by the
	// baselines (§2.1). Ignored when Phase2 runs.
	TrapFold bool
	// TrapConvert lowers checks through the trap with the full §4.2.2
	// substitutable analysis but without forward motion; the Phase1Only
	// configuration uses it (the paper's phase-1-only row still utilizes
	// hardware traps). Ignored when Phase2 runs.
	TrapConvert bool
	// Phase2 runs the architecture-dependent optimization (§4.2).
	Phase2 bool
	// Phase2Model overrides the trap model phase 2 (and TrapFold) assume;
	// nil means the execution model. The AIX "Illegal Implicit"
	// configuration sets this to the Intel model.
	Phase2Model *arch.Model

	// Speculation allows scalar replacement to hoist reads above null
	// checks when the execution model's reads cannot trap (§3.3.1).
	Speculation bool

	// SkipGuardCheck disables the post-compile safety verification; only
	// the deliberately illegal configuration sets it.
	SkipGuardCheck bool

	// Verify runs the structural IR verifier (internal/irverify) after every
	// pass, reporting the pass, function and offending instruction on the
	// first violation. The TRAPNULL_VERIFY environment variable force-enables
	// it process-wide (ci.sh's hardened gate).
	Verify bool

	// InjectUnsafeSubstitution deliberately weakens the §4.2.2 substitutable
	// elimination from all-paths to any-path coverage — a planted miscompile
	// used by cmd/triage and the triage tests to prove the bisect/shrink
	// machinery catches real optimizer bugs. Never set by a real
	// configuration.
	InjectUnsafeSubstitution bool
}

// Times is the per-phase-family compile time split of Table 4.
type Times struct {
	NullCheckOpt time.Duration
	Other        time.Duration
}

// Total returns the whole compile time.
func (t Times) Total() time.Duration { return t.NullCheckOpt + t.Other }

// Add accumulates o into t.
func (t *Times) Add(o Times) {
	t.NullCheckOpt += o.NullCheckOpt
	t.Other += o.Other
}

// Result is the outcome of compiling one program under one configuration.
type Result struct {
	Config Config
	Times  Times
	Checks nullcheck.Stats
	Inline opt.InlineStats
	Scalar opt.ScalarStats
	// BoundChecksRemoved counts statically removed bounds checks.
	BoundChecksRemoved int
	// FuncsCompiled counts optimized method bodies.
	FuncsCompiled int
	// SpeculatedChecks counts surviving checks flipped into tier-2
	// speculation guards (CompileOptions.Spec); zero for conservative
	// compilations.
	SpeculatedChecks int
	// DemotedChecks counts implicit sites forced back to explicit checks
	// (CompileOptions.Demote); zero for ungoverned compilations.
	DemotedChecks int
}

// CompileOptions tunes one CompileProgramWith call beyond the Config itself.
type CompileOptions struct {
	// Observer attaches the observability layer (trace spans, fate ledgers).
	// Nil (or nil fields) degrades to the exact unobserved compilation.
	Observer *Observer
	// Spec, when non-empty, flips the selected surviving checks into tier-2
	// speculation guards after the normal pipeline has run (see
	// speculate.go).
	Spec SpecSet
	// Demote, when non-empty, forces the selected implicit check sites back
	// to explicit checks after the normal pipeline has run (see demote.go).
	Demote DemoteSet
	// PassFault, when non-nil, is consulted before every optimization pass;
	// a non-empty return panics inside the pass's containment boundary, so
	// the fault surfaces as a deterministic *PassError exactly like a real
	// pass bug would. The fault-injection harness (internal/faultinject)
	// supplies pure functions of (seed, method, pass) here.
	PassFault func(method, pass string) string
}

// CompileProgram optimizes every method body of prog (in place) under cfg
// for execution on execModel. Workload constructors build a fresh program
// per compilation, so in-place rewriting is safe. Calls on distinct programs
// are safe to run concurrently: all statistics accumulate into the per-call
// Result and neither this package nor the passes it drives keep mutable
// package-level state — the parallel bench harness relies on this.
func CompileProgram(prog *ir.Program, cfg Config, execModel *arch.Model) (*Result, error) {
	return CompileProgramWith(prog, cfg, execModel, CompileOptions{})
}

// CompileProgramObserved is CompileProgram with the observability layer
// attached: pass/function trace spans land in ob.Trace and per-check fate
// ledgers in ob.Remarks.
func CompileProgramObserved(prog *ir.Program, cfg Config, execModel *arch.Model, ob *Observer) (*Result, error) {
	return CompileProgramWith(prog, cfg, execModel, CompileOptions{Observer: ob})
}

// CompileProgramWith is the full-control entry point behind CompileProgram
// and CompileProgramObserved. Methods compile one at a time in program
// order, so each method inlines its callees' final (already optimized)
// bodies when they precede it and their pristine bodies otherwise.
func CompileProgramWith(prog *ir.Program, cfg Config, execModel *arch.Model, opts CompileOptions) (*Result, error) {
	res := &Result{Config: cfg}
	for _, m := range prog.Methods {
		if m.Fn == nil {
			continue
		}
		if err := compileFunc(m, cfg, execModel, res, opts.Observer, opts.PassFault); err != nil {
			return nil, fmt.Errorf("%s: %w", m.QualifiedName(), err)
		}
		res.FuncsCompiled++
	}
	finishProgramStats(prog, res)
	// Trap sites are numbered on every compile so the governor can key its
	// per-site profile on ordinals that survive recompilation; the numbering
	// is a pure function of the (deterministic) compiled body.
	numberTrapSites(prog)
	if len(opts.Demote) > 0 {
		// Demotion, like speculation below, is applied after the whole
		// pipeline has run: no pass ever observes an inserted check, and the
		// demoted body stays block-aligned with the ungoverned compilation
		// of the same pristine program (instructions are inserted, never
		// moved or split across blocks).
		res.DemotedChecks = applyDemotion(prog, opts.Demote)
	}
	if len(opts.Spec) > 0 {
		// Speculation flags are applied after the whole pipeline (including
		// the guard containment check) has run, so no pass ever observes a
		// SpecGuard and the speculative body stays block-for-block aligned
		// with the conservative compilation of the same pristine program.
		res.SpeculatedChecks = applySpeculation(prog, opts.Spec)
	}
	return res, nil
}

// finishProgramStats recomputes the surviving static check count from the
// final bodies (the per-pass values accumulated by Add double-count across
// iterations).
func finishProgramStats(prog *ir.Program, res *Result) {
	res.Checks.ExplicitRemaining = 0
	for _, m := range prog.Methods {
		if m.Fn != nil {
			res.Checks.ExplicitRemaining += m.Fn.CountOp(ir.OpNullCheck)
		}
	}
}

// compileFunc runs the cfg pipeline on m's body, registering a fate ledger
// for it when ob collects remarks. fault is CompileOptions.PassFault
// (usually nil).
func compileFunc(m *ir.Method, cfg Config, execModel *arch.Model, res *Result, ob *Observer, fault func(method, pass string) string) error {
	verify := cfg.Verify || envVerify
	f, name := m.Fn, m.QualifiedName()
	var ledger *obs.Ledger
	if ob != nil && ob.Remarks != nil {
		ledger = ob.Remarks.NewLedger(f, name)
		f.Track = ledger
		defer func() { f.Track = nil }()
	}
	var fnStart time.Time
	if ob.tracing() {
		fnStart = time.Now()
		defer func() {
			ob.Trace.Span(ob.TID, "compile", name, fnStart, time.Since(fnStart),
				map[string]any{"instrs": f.NumInstrs(), "config": cfg.Name})
		}()
	}
	for _, p := range pipeline(cfg, execModel) {
		if ledger != nil {
			ledger.BeginPass(p.name)
		}
		if fault != nil {
			// Injected faults panic inside runPass's containment boundary,
			// so they surface as deterministic *PassError values exactly
			// like organic pass bugs.
			run, pname := p.run, p.name
			p.run = func(f *ir.Func, res *Result) {
				if msg := fault(name, pname); msg != "" {
					panic(msg)
				}
				run(f, res)
			}
		}
		if err := runPass(p, f, res, verify, nil, ob); err != nil {
			return err
		}
		if ledger != nil {
			ledger.Sync()
		}
	}
	if ledger != nil {
		ledger.Finish()
	}
	if !verify {
		// The verified path already checked after every pass, including the
		// last one; the fast path keeps the original single post-pipeline
		// validation.
		if err := ir.Validate(f); err != nil {
			return fmt.Errorf("invalid after optimization: %w", err)
		}
	}
	if !cfg.SkipGuardCheck {
		if err := checkGuardsContained(f, execModel); err != nil {
			return err
		}
	}
	return nil
}
