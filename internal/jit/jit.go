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
	// Iterations caps how many times the null check algorithm iterates with
	// the other optimizations (Figure 2's loop); minimum 1. The loop stops
	// early after the first round in which no pass changes anything.
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
	// AfterPass, when non-nil, sees every function after every pass it
	// survives (after verification, when that runs); a non-nil return stops
	// the compile with that error. internal/triage bisects through it.
	AfterPass PassObserver
}

// CompileProgram optimizes every method body of prog (in place) under cfg
// for execution on execModel. Workload constructors build a fresh program
// per compilation, so in-place rewriting is safe. Calls on distinct programs
// are safe to run concurrently: all statistics accumulate into the per-call
// Result, and the only package-level state the passes reach is their
// workspace pools (dataflow, cfg, nullcheck, opt), which are safe for
// concurrent use and hand each pass memory no other live pass holds — the
// parallel bench harness relies on this.
func CompileProgram(prog *ir.Program, cfg Config, execModel *arch.Model) (*Result, error) {
	return CompileProgramWith(prog, cfg, execModel, CompileOptions{})
}

// CompileProgramWith is the full-control entry point behind CompileProgram.
// Methods compile one at a time in program order, so each method inlines its
// callees' final (already optimized) bodies when they precede it and their
// pristine bodies otherwise.
func CompileProgramWith(prog *ir.Program, cfg Config, execModel *arch.Model, opts CompileOptions) (*Result, error) {
	return compileProgram(prog, pipeline(cfg), cfg, execModel, opts)
}

// compileProgram compiles every method of prog through passes, cfg's
// pipeline built once for the whole program.
func compileProgram(prog *ir.Program, passes []pass, cfg Config, execModel *arch.Model, opts CompileOptions) (*Result, error) {
	res := &Result{Config: cfg}
	for _, m := range prog.Methods {
		if m.Fn == nil {
			continue
		}
		if err := compileFunc(m, passes, cfg, execModel, res, opts); err != nil {
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

// compileFunc runs cfg's pass list on m's body, registering a fate ledger
// for it when opts.Observer collects remarks. It is the one loop over
// pipeline(): every compile, observed or not, runs its passes here.
//
// cfg.Iterations caps Figure 2's loop rather than fixing its length. Every
// pass is a deterministic function of the IR, so a round in which no pass
// changes anything is a fixed point and so is every round after it: those
// rounds are skipped, and the passes after the loop run on the same IR the
// fully unrolled pipeline would hand them.
func compileFunc(m *ir.Method, passes []pass, cfg Config, execModel *arch.Model, res *Result, opts CompileOptions) error {
	verify := cfg.Verify || envVerify
	f, name, ob := m.Fn, m.QualifiedName(), opts.Observer
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
	round, changes := 0, 0
	for _, p := range passes {
		if p.round > round {
			if round > 0 && changes == 0 {
				continue // the previous round was quiescent
			}
			round, changes = p.round, 0
		}
		if ledger != nil {
			ledger.BeginPass(p.name)
		}
		n, err := runPass(p, name, f, res, execModel, verify, opts)
		if err != nil {
			return err
		}
		changes += n
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
