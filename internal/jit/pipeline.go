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
var envVerify = verifyFromEnv()

// verifyFromEnv parses TRAPNULL_VERIFY and stops the process on a value
// verifySetting rejects, as machine.engineFromEnv does for TRAPNULL_ENGINE:
// a misspelt setting must not quietly pick either state.
func verifyFromEnv() bool {
	on, err := verifySetting(os.Getenv("TRAPNULL_VERIFY"))
	if err != nil {
		fmt.Fprintf(os.Stderr, "TRAPNULL_VERIFY: %v\n", err)
		os.Exit(2)
	}
	return on
}

// verifySetting parses a TRAPNULL_VERIFY value, in any case: unset, "0",
// "off" and "false" leave the verifier off; "1", "on" and "true" turn it on.
// Anything else is an error.
func verifySetting(v string) (bool, error) {
	switch strings.ToLower(v) {
	case "", "0", "off", "false":
		return false, nil
	case "1", "on", "true":
		return true, nil
	}
	return false, fmt.Errorf("jit: unknown verify setting %q (want 1, on, true, 0, off or false)", v)
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
	// run applies the pass for res.Config and the execution model m and
	// returns how many changes it made; zero means it left f as it found it
	// (runPass also counts blocks it created).
	run func(f *ir.Func, res *Result, m *arch.Model) int
}

// namedRounds is how many of Figure 2's rounds have their pass names built
// once, at package initialization.
const namedRounds = 16

// roundNames maps each iterated pass to its per-round names "<pass>#<i>".
// Trace spans, remarks, bisect, AfterPass and PassFault all key on them.
var roundNames = func() map[string][]string {
	names := map[string][]string{}
	for _, base := range []string{"whaley", "phase1", "copyprop", "constfold", "cse", "boundelim", "scalar", "dce"} {
		for i := 0; i < namedRounds; i++ {
			names[base] = append(names[base], fmt.Sprintf("%s#%d", base, i))
		}
	}
	return names
}()

// roundName returns the name of base's pass in round i (counted from 0):
// a static string for the first namedRounds rounds, formatted beyond them.
func roundName(base string, i int) string {
	if names := roundNames[base]; i < len(names) {
		return names[i]
	}
	return fmt.Sprintf("%s#%d", base, i)
}

// pipeline assembles the ordered pass list for one configuration.
// CompileProgramWith builds it once per program, and compileFunc runs it, so
// the production pipeline and the observed/bisected one
// (CompileOptions.AfterPass) can never drift apart. A pass reads its
// parameters from res.Config and the model at run time, so no pass captures
// anything and the list, presized, is the pipeline's one allocation.
func pipeline(cfg Config) []pass {
	iters := max(cfg.Iterations, 1)
	// inline, rotate; per round at most six passes; lowering, cleanup.
	ps := make([]pass, 0, 2+6*iters+2)
	round := 0
	add := func(name string, null bool, run func(*ir.Func, *Result, *arch.Model) int) {
		ps = append(ps, pass{name: name, null: null, round: round, run: run})
	}

	if cfg.Inline {
		add("inline", false, func(f *ir.Func, res *Result, m *arch.Model) int {
			budget := res.Config.InlineBudget
			if budget == 0 {
				budget = opt.InlineBudget
			}
			st := opt.InlineWithBudget(f, m, budget)
			res.Inline.Add(st)
			return st.Devirtualized + st.Inlined + st.Intrinsified
		})
	}
	if cfg.OtherOpts {
		// Rotate top-tested loops into the guarded do-while shape before
		// any PRE runs: anticipability needs bodies on every path.
		add("rotate", false, func(f *ir.Func, res *Result, m *arch.Model) int {
			return opt.RotateLoops(f)
		})
	}

	// Figure 2's loop. The change counts stop it early: compileFunc skips
	// every round after the first one in which no pass changed anything.
	for i := 0; i < iters; i++ {
		round = i + 1
		switch cfg.Algo {
		case AlgoWhaley:
			add(roundName("whaley", i), true, func(f *ir.Func, res *Result, m *arch.Model) int {
				return addChecks(res, nullcheck.Whaley(f))
			})
		case AlgoNew:
			add(roundName("phase1", i), true, func(f *ir.Func, res *Result, m *arch.Model) int {
				return addChecks(res, nullcheck.Phase1(f))
			})
		}
		if cfg.OtherOpts {
			add(roundName("copyprop", i), false, func(f *ir.Func, res *Result, m *arch.Model) int {
				return opt.CopyProp(f)
			})
			add(roundName("constfold", i), false, func(f *ir.Func, res *Result, m *arch.Model) int {
				return opt.ConstFold(f)
			})
			if cfg.LightScalar {
				add(roundName("cse", i), false, func(f *ir.Func, res *Result, m *arch.Model) int {
					n := opt.CSE(f)
					res.Scalar.Add(opt.ScalarStats{CSE: n})
					return n
				})
			} else {
				add(roundName("boundelim", i), false, func(f *ir.Func, res *Result, m *arch.Model) int {
					n := opt.BoundCheckElim(f)
					res.BoundChecksRemoved += n
					return n
				})
				add(roundName("scalar", i), false, func(f *ir.Func, res *Result, m *arch.Model) int {
					// Scalar replacement consults SpeculativeReads; the
					// configuration decides whether that capability is used
					// at all.
					scalarModel := *m
					scalarModel.SpeculativeReads = m.SpeculativeReads && res.Config.Speculation
					st := opt.ScalarReplace(f, &scalarModel)
					res.Scalar.Add(st)
					return st.CSE + st.Hoisted + st.Promoted + st.Speculated
				})
			}
			add(roundName("dce", i), false, func(f *ir.Func, res *Result, m *arch.Model) int {
				return opt.DCE(f)
			})
		}
	}
	round = 0

	switch {
	case cfg.Phase2:
		add("phase2", true, func(f *ir.Func, res *Result, m *arch.Model) int {
			if res.Config.InjectUnsafeSubstitution {
				return addChecks(res, nullcheck.Phase2UnsafeSubst(f, trapModel(res.Config, m)))
			}
			return addChecks(res, nullcheck.Phase2(f, trapModel(res.Config, m)))
		})
	case cfg.TrapConvert:
		add("trapconvert", true, func(f *ir.Func, res *Result, m *arch.Model) int {
			convert := nullcheck.ConvertToTraps
			if res.Config.InjectUnsafeSubstitution {
				convert = nullcheck.ConvertToTrapsAnyPath
			}
			return addChecks(res, nullcheck.Stats{Implicit: convert(f, trapModel(res.Config, m))})
		})
	case cfg.TrapFold:
		add("trapfold", true, func(f *ir.Func, res *Result, m *arch.Model) int {
			return addChecks(res, nullcheck.Stats{Implicit: nullcheck.FoldAdjacentTraps(f, trapModel(res.Config, m))})
		})
	}

	add("cleanup", false, func(f *ir.Func, res *Result, m *arch.Model) int {
		return opt.CopyProp(f) + opt.ConstFold(f) + opt.DCE(f) + opt.SimplifyCFG(f)
	})
	return ps
}

// trapModel is the model the trap-exploiting passes assume: cfg.Phase2Model
// when set, the execution model otherwise.
func trapModel(cfg Config, execModel *arch.Model) *arch.Model {
	if cfg.Phase2Model != nil {
		return cfg.Phase2Model
	}
	return execModel
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
func runPass(p pass, method string, f *ir.Func, res *Result, execModel *arch.Model, verify bool, opts CompileOptions) (changes int, err error) {
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
		changes = p.run(f, res, execModel) + max(f.MaxBlockID()-blocks, 0)
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
