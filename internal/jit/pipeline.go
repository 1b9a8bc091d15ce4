package jit

import (
	"fmt"
	"os"
	"runtime/debug"
	"strings"
	"time"

	"trapnull/internal/arch"
	"trapnull/internal/ir"
	"trapnull/internal/irverify"
	"trapnull/internal/nullcheck"
	"trapnull/internal/opt"
)

// envVerify force-enables per-pass IR verification for a whole process:
// `TRAPNULL_VERIFY=1 go test ./...` is ci.sh's verifier-enabled gate. It is
// read once at init, so concurrent compilations observe a constant.
var envVerify = verifySetting(os.Getenv("TRAPNULL_VERIFY"))

// verifySetting parses a TRAPNULL_VERIFY value: unset, "off", "0" and
// "false" (any case, the spellings TRAPNULL_COMPILE_CACHE accepts for off)
// leave the verifier off; anything else turns it on.
func verifySetting(v string) bool {
	switch strings.ToLower(v) {
	case "", "off", "0", "false":
		return false
	}
	return true
}

// pass is one named step of the compilation pipeline.
type pass struct {
	name string
	// null accounts the pass's time to Times.NullCheckOpt (Table 4's split);
	// everything else bills to Times.Other.
	null bool
	run  func(f *ir.Func, res *Result)
}

// pipeline assembles the ordered pass list for one configuration. Both
// CompileProgram and CompileFuncObserved execute exactly this list, so the
// production pipeline and the observed/bisected one can never drift apart.
func pipeline(cfg Config, execModel *arch.Model) []pass {
	trapModel := cfg.Phase2Model
	if trapModel == nil {
		trapModel = execModel
	}
	// Scalar replacement consults SpeculativeReads; the configuration
	// decides whether that capability is used at all.
	scalarModel := *execModel
	scalarModel.SpeculativeReads = execModel.SpeculativeReads && cfg.Speculation

	var ps []pass
	add := func(name string, null bool, run func(*ir.Func, *Result)) {
		ps = append(ps, pass{name: name, null: null, run: run})
	}

	if cfg.Inline {
		budget := cfg.InlineBudget
		if budget == 0 {
			budget = opt.InlineBudget
		}
		add("inline", false, func(f *ir.Func, res *Result) {
			res.Inline.Add(opt.InlineWithBudget(f, execModel, budget))
		})
	}
	if cfg.OtherOpts {
		// Rotate top-tested loops into the guarded do-while shape before
		// any PRE runs: anticipability needs bodies on every path.
		add("rotate", false, func(f *ir.Func, res *Result) {
			opt.RotateLoops(f)
		})
	}

	iters := cfg.Iterations
	if iters < 1 {
		iters = 1
	}
	for i := 0; i < iters; i++ {
		switch cfg.Algo {
		case AlgoWhaley:
			add(fmt.Sprintf("whaley#%d", i), true, func(f *ir.Func, res *Result) {
				res.Checks.Add(nullcheck.Whaley(f))
			})
		case AlgoNew:
			add(fmt.Sprintf("phase1#%d", i), true, func(f *ir.Func, res *Result) {
				res.Checks.Add(nullcheck.Phase1(f))
			})
		}
		if cfg.OtherOpts {
			add(fmt.Sprintf("copyprop#%d", i), false, func(f *ir.Func, res *Result) {
				opt.CopyProp(f)
			})
			add(fmt.Sprintf("constfold#%d", i), false, func(f *ir.Func, res *Result) {
				opt.ConstFold(f)
			})
			if cfg.LightScalar {
				add(fmt.Sprintf("cse#%d", i), false, func(f *ir.Func, res *Result) {
					res.Scalar.Add(opt.ScalarStats{CSE: opt.CSE(f)})
				})
			} else {
				add(fmt.Sprintf("boundelim#%d", i), false, func(f *ir.Func, res *Result) {
					res.BoundChecksRemoved += opt.BoundCheckElim(f)
				})
				add(fmt.Sprintf("scalar#%d", i), false, func(f *ir.Func, res *Result) {
					res.Scalar.Add(opt.ScalarReplace(f, &scalarModel))
				})
			}
			add(fmt.Sprintf("dce#%d", i), false, func(f *ir.Func, res *Result) {
				opt.DCE(f)
			})
		}
	}

	switch {
	case cfg.Phase2:
		add("phase2", true, func(f *ir.Func, res *Result) {
			if cfg.InjectUnsafeSubstitution {
				res.Checks.Add(nullcheck.Phase2UnsafeSubst(f, trapModel))
			} else {
				res.Checks.Add(nullcheck.Phase2(f, trapModel))
			}
		})
	case cfg.TrapConvert:
		add("trapconvert", true, func(f *ir.Func, res *Result) {
			if cfg.InjectUnsafeSubstitution {
				res.Checks.Implicit += nullcheck.ConvertToTrapsAnyPath(f, trapModel)
			} else {
				res.Checks.Implicit += nullcheck.ConvertToTraps(f, trapModel)
			}
		})
	case cfg.TrapFold:
		add("trapfold", true, func(f *ir.Func, res *Result) {
			res.Checks.Implicit += nullcheck.FoldAdjacentTraps(f, trapModel)
		})
	}

	add("cleanup", false, func(f *ir.Func, res *Result) {
		opt.CopyProp(f)
		opt.ConstFold(f)
		opt.DCE(f)
		opt.SimplifyCFG(f)
	})
	return ps
}

// runPass executes one pass with full containment: a panic inside the pass
// becomes a *PassError carrying the pass name, function, IR dump and stack
// instead of unwinding the caller, and — when verify is set — the structural
// verifier runs on the result so a silently-corrupting pass is caught at the
// boundary it crossed. The observer, if any, sees the function after the
// pass (and after verification, so it only ever sees verified IR). When ob
// carries a trace, the pass is wrapped in a span recording its wall time, IR
// size before/after, and — when the verifier ran — the verification time.
func runPass(p pass, f *ir.Func, res *Result, verify bool, po PassObserver, ob *Observer) (err error) {
	start := time.Now()
	tracing := ob.tracing()
	irBefore := 0
	if tracing {
		irBefore = f.NumInstrs()
	}
	defer func() {
		if p.null {
			res.Times.NullCheckOpt += time.Since(start)
		} else {
			res.Times.Other += time.Since(start)
		}
	}()

	func() {
		defer func() {
			if r := recover(); r != nil {
				err = &PassError{
					Pass:    p.name,
					Func:    f.Name,
					IRDump:  safeDump(f),
					Panic:   r,
					Stack:   debug.Stack(),
					Elapsed: time.Since(start),
				}
			}
		}()
		p.run(f, res)
	}()
	if err != nil {
		return err
	}

	var verifyTime time.Duration
	if verify {
		v0 := time.Now()
		verr := irverify.Func(f)
		verifyTime = time.Since(v0)
		if verr != nil {
			return &PassError{Pass: p.name, Func: f.Name, IRDump: safeDump(f), Err: verr, Elapsed: time.Since(start)}
		}
	}
	if tracing {
		args := map[string]any{"ir_before": irBefore, "ir_after": f.NumInstrs()}
		if verify {
			args["verify_us"] = float64(verifyTime) / float64(time.Microsecond)
		}
		ob.Trace.Span(ob.TID, "pass", p.name, start, time.Since(start), args)
	}
	if po != nil {
		if oerr := po(p.name, f, time.Since(start)); oerr != nil {
			return fmt.Errorf("after %s: %w", p.name, oerr)
		}
	}
	return nil
}

// safeDump renders the function, tolerating IR so corrupt that printing
// itself panics.
func safeDump(f *ir.Func) (dump string) {
	defer func() {
		if recover() != nil {
			dump = "<IR unprintable>"
		}
	}()
	return f.String()
}

// checkGuardsContained runs the post-compile safety verification with the
// same panic containment as a pass.
func checkGuardsContained(f *ir.Func, execModel *arch.Model) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PassError{
				Pass:   "guardcheck",
				Func:   f.Name,
				IRDump: safeDump(f),
				Panic:  r,
				Stack:  debug.Stack(),
			}
		}
	}()
	return nullcheck.CheckGuards(f, execModel)
}
