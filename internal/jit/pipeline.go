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
// "false" (any case) leave the verifier off; anything else turns it on.
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
	// round is the pass's Figure 2 round, counted from 1; 0 marks the passes
	// before and after the iterated loop, which always run.
	round int
	// run applies the pass and returns how many changes it made; zero means
	// it left f as it found it (runPass also counts blocks it created).
	run func(f *ir.Func, res *Result) int
}

// pipeline assembles the ordered pass list for one configuration.
// CompileProgramWith builds it once per program, and compileFunc runs it, so
// the production pipeline and the observed/bisected one
// (CompileOptions.AfterPass) can never drift apart.
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
	round := 0
	add := func(name string, null bool, run func(*ir.Func, *Result) int) {
		ps = append(ps, pass{name: name, null: null, round: round, run: run})
	}

	if cfg.Inline {
		budget := cfg.InlineBudget
		if budget == 0 {
			budget = opt.InlineBudget
		}
		add("inline", false, func(f *ir.Func, res *Result) int {
			st := opt.InlineWithBudget(f, execModel, budget)
			res.Inline.Add(st)
			return st.Devirtualized + st.Inlined + st.Intrinsified
		})
	}
	if cfg.OtherOpts {
		// Rotate top-tested loops into the guarded do-while shape before
		// any PRE runs: anticipability needs bodies on every path.
		add("rotate", false, func(f *ir.Func, res *Result) int {
			return opt.RotateLoops(f)
		})
	}

	// Figure 2's loop. The change counts stop it early: compileFunc skips
	// every round after the first one in which no pass changed anything.
	iters := cfg.Iterations
	if iters < 1 {
		iters = 1
	}
	for i := 0; i < iters; i++ {
		round = i + 1
		switch cfg.Algo {
		case AlgoWhaley:
			add(fmt.Sprintf("whaley#%d", i), true, func(f *ir.Func, res *Result) int {
				return addChecks(res, nullcheck.Whaley(f))
			})
		case AlgoNew:
			add(fmt.Sprintf("phase1#%d", i), true, func(f *ir.Func, res *Result) int {
				return addChecks(res, nullcheck.Phase1(f))
			})
		}
		if cfg.OtherOpts {
			add(fmt.Sprintf("copyprop#%d", i), false, func(f *ir.Func, res *Result) int {
				return opt.CopyProp(f)
			})
			add(fmt.Sprintf("constfold#%d", i), false, func(f *ir.Func, res *Result) int {
				return opt.ConstFold(f)
			})
			if cfg.LightScalar {
				add(fmt.Sprintf("cse#%d", i), false, func(f *ir.Func, res *Result) int {
					n := opt.CSE(f)
					res.Scalar.Add(opt.ScalarStats{CSE: n})
					return n
				})
			} else {
				add(fmt.Sprintf("boundelim#%d", i), false, func(f *ir.Func, res *Result) int {
					n := opt.BoundCheckElim(f)
					res.BoundChecksRemoved += n
					return n
				})
				add(fmt.Sprintf("scalar#%d", i), false, func(f *ir.Func, res *Result) int {
					st := opt.ScalarReplace(f, &scalarModel)
					res.Scalar.Add(st)
					return st.CSE + st.Hoisted + st.Promoted + st.Speculated
				})
			}
			add(fmt.Sprintf("dce#%d", i), false, func(f *ir.Func, res *Result) int {
				return opt.DCE(f)
			})
		}
	}
	round = 0

	switch {
	case cfg.Phase2:
		add("phase2", true, func(f *ir.Func, res *Result) int {
			if cfg.InjectUnsafeSubstitution {
				return addChecks(res, nullcheck.Phase2UnsafeSubst(f, trapModel))
			}
			return addChecks(res, nullcheck.Phase2(f, trapModel))
		})
	case cfg.TrapConvert:
		add("trapconvert", true, func(f *ir.Func, res *Result) int {
			convert := nullcheck.ConvertToTraps
			if cfg.InjectUnsafeSubstitution {
				convert = nullcheck.ConvertToTrapsAnyPath
			}
			return addChecks(res, nullcheck.Stats{Implicit: convert(f, trapModel)})
		})
	case cfg.TrapFold:
		add("trapfold", true, func(f *ir.Func, res *Result) int {
			return addChecks(res, nullcheck.Stats{Implicit: nullcheck.FoldAdjacentTraps(f, trapModel)})
		})
	}

	add("cleanup", false, func(f *ir.Func, res *Result) int {
		return opt.CopyProp(f) + opt.ConstFold(f) + opt.DCE(f) + opt.SimplifyCFG(f)
	})
	return ps
}

// addChecks accumulates a null-check pass's statistics into res and returns
// its change count. ExplicitRemaining is a census of the surviving checks,
// not a change: it is non-zero even when the pass did nothing.
func addChecks(res *Result, st nullcheck.Stats) int {
	res.Checks.Add(st)
	return st.Eliminated + st.Inserted + st.Implicit
}

// runPass executes one pass of method's body f and returns its change count:
// what the pass reports plus the blocks it created (phase 1 and phase 2 split
// critical edges without counting them). It runs the pass with full
// containment: a panic inside the pass — or a fault opts.PassFault injects
// for (method, pass) — becomes a *PassError carrying the pass name,
// function, IR dump and stack instead of unwinding the caller, and — when
// verify is set — the structural verifier runs on the result so a
// silently-corrupting pass is caught at the boundary it crossed.
// opts.AfterPass, if any, sees the function after the pass (and after
// verification, so it only ever sees verified IR). When opts.Observer
// carries a trace, the pass is wrapped in a span recording its wall time, IR
// size before/after, and — when the verifier ran — the verification time.
func runPass(p pass, method string, f *ir.Func, res *Result, verify bool, opts CompileOptions) (changes int, err error) {
	start := time.Now()
	ob := opts.Observer
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
		if opts.PassFault != nil {
			if msg := opts.PassFault(method, p.name); msg != "" {
				panic(msg)
			}
		}
		blocks := f.MaxBlockID()
		changes = p.run(f, res) + max(f.MaxBlockID()-blocks, 0)
	}()
	if err != nil {
		return 0, err
	}

	var verifyTime time.Duration
	if verify {
		v0 := time.Now()
		verr := irverify.Func(f)
		verifyTime = time.Since(v0)
		if verr != nil {
			return 0, &PassError{Pass: p.name, Func: f.Name, IRDump: safeDump(f), Err: verr, Elapsed: time.Since(start)}
		}
	}
	if tracing {
		args := map[string]any{"ir_before": irBefore, "ir_after": f.NumInstrs()}
		if verify {
			args["verify_us"] = float64(verifyTime) / float64(time.Microsecond)
		}
		ob.Trace.Span(ob.TID, "pass", p.name, start, time.Since(start), args)
	}
	if opts.AfterPass != nil {
		if oerr := opts.AfterPass(p.name, f, time.Since(start)); oerr != nil {
			return 0, fmt.Errorf("after %s: %w", p.name, oerr)
		}
	}
	return changes, nil
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
