// Package triage turns "this (program, config, arch) triple miscompiles"
// into an actionable bug report. Given a deterministic program generator and
// a configuration, it
//
//  1. checks the optimized program against the interpreted baseline over a
//     set of inputs (Check),
//  2. bisects a divergence to the first pipeline pass whose output behaves
//     differently, by re-running the compilation under a pass observer that
//     snapshots the IR after every pass and interpreting each intermediate
//     state (Bisect),
//  3. delta-debugs the generated program down to a minimal entry function
//     that still diverges (Shrink), and
//  4. emits the shrunken program as jasm plus a ready-to-paste Go regression
//     test (Report.RegressionTest).
//
// The machinery assumes nothing about why the compiler is wrong; it only
// needs the generator to be deterministic (same call, same program) so that
// fresh copies can stand in for "undo the compilation".
package triage

import (
	"fmt"
	"time"

	"trapnull/internal/arch"
	"trapnull/internal/ir"
	"trapnull/internal/jit"
	"trapnull/internal/machine"
	"trapnull/internal/rt"
)

// Case is one suspected-miscompile triple plus the inputs to try.
type Case struct {
	// Gen builds a fresh copy of the program and returns it with its entry
	// function. It must be deterministic: every call yields a structurally
	// identical program. randprog.Generate with a fixed config is the
	// canonical generator.
	Gen    func() (*ir.Program, *ir.Func)
	Config jit.Config
	Model  *arch.Model
	// Inputs are the argument values passed to the entry function.
	Inputs []int64
}

// Outcome is a program behaviour: a normal result or an exception kind.
type Outcome struct {
	Value int64
	Exc   rt.ExcKind
}

func (o Outcome) String() string {
	if o.Exc != rt.ExcNone {
		return fmt.Sprintf("throws %v", o.Exc)
	}
	return fmt.Sprintf("returns %d", o.Value)
}

// Equal compares outcomes the way the differential tests do: same exception
// kind, and when neither throws, the same value.
func (o Outcome) Equal(p Outcome) bool {
	return o.Exc == p.Exc && (o.Exc != rt.ExcNone || o.Value == p.Value)
}

// Divergence is one observed baseline/optimized disagreement.
type Divergence struct {
	Input int64
	Want  Outcome // interpreted, unoptimized
	Got   Outcome // after compilation under Case.Config
}

func (d *Divergence) String() string {
	return fmt.Sprintf("input %d: baseline %v, optimized %v", d.Input, d.Want, d.Got)
}

// Report is the full triage result for one Case.
type Report struct {
	// Divergence is nil when the case does not miscompile (and the rest of
	// the report is empty).
	Divergence *Divergence

	// Pass is the first pipeline pass whose output diverges from the
	// baseline; Method is the method it was compiling.
	Pass   string
	Method string
	// SnapshotIR is the guilty method's body immediately after Pass — the
	// earliest broken state.
	SnapshotIR string

	// MinimalEntry is the delta-debugged entry function (still diverging),
	// MinimalInstrs its instruction count, and Reproducer the whole shrunken
	// program in jasm form.
	MinimalEntry  *ir.Func
	MinimalInstrs int
	Reproducer    string

	// RegressionTest is a ready-to-paste Go test that parses Reproducer,
	// compiles it under the same configuration and asserts the baseline
	// outcome.
	RegressionTest string

	// PassTimes records how long each pass ran while the bisection timeline
	// was being recorded (observed recompilation, verifier on), in execution
	// order up to and including the guilty pass. cmd/triage prints it so a
	// bisection doubles as a compile-time profile of the failing method.
	PassTimes []PassTime
}

// PassTime is one entry of Report.PassTimes.
type PassTime struct {
	Method  string
	Pass    string
	Elapsed time.Duration
}

// Run executes the whole pipeline: Check, then on divergence Bisect and
// Shrink. A compile error (e.g. a *jit.PassError from a panicking pass) is
// returned as an error — it is already triaged to a pass by construction.
//
// One content-addressed compile cache serves the whole run: Check's
// per-input replays all share one key (same generator, same projection), and
// the shrink loop's candidate evaluations hit whenever two edit sequences
// produce structurally identical programs. The bisection is the one stage
// that must recompile — it exists to observe the passes running.
func Run(c Case) (*Report, error) {
	cache := jit.NewCache(0)
	div, err := check(c, cache)
	if err != nil {
		return nil, err
	}
	if div == nil {
		return &Report{}, nil
	}
	rep := &Report{Divergence: div}
	if err := bisect(c, div, rep); err != nil {
		return nil, fmt.Errorf("triage: bisect: %w", err)
	}
	if err := shrink(c, div, rep, cache); err != nil {
		return nil, fmt.Errorf("triage: shrink: %w", err)
	}
	rep.RegressionTest = regressionTest(c, rep)
	return rep, nil
}

// Check compiles a fresh copy under the configuration and compares it with
// the interpreted baseline on every input. It returns the first divergence,
// or nil when the case behaves.
func Check(c Case) (*Divergence, error) {
	return check(c, jit.NewCache(0))
}

func check(c Case, cache *jit.Cache) (*Divergence, error) {
	for _, input := range c.Inputs {
		want, err := interpretFresh(c, input)
		if err != nil {
			return nil, fmt.Errorf("triage: baseline: %w", err)
		}
		prog, entry := c.Gen()
		prog, entry, err = compileCached(cache, c, prog, entry)
		if err != nil {
			return nil, fmt.Errorf("triage: compile: %w", err)
		}
		got, err := interpret(prog, entry, c.Model, input)
		if err != nil {
			return nil, fmt.Errorf("triage: optimized run: %w", err)
		}
		if !got.Equal(want) {
			return &Divergence{Input: input, Want: want, Got: got}, nil
		}
	}
	return nil, nil
}

// compileCached compiles prog under the case's configuration, serving
// structurally identical programs from the cache. On a hit the freshly
// generated program is discarded and the cached compiled copy runs instead,
// with the entry function re-resolved by qualified name — sound because
// cached entries are immutable and every run gets its own machine and heap.
// An entry function that is not a method of its program cannot be renamed
// into a cached copy, so that (unusual) shape compiles directly.
func compileCached(cache *jit.Cache, c Case, prog *ir.Program, entry *ir.Func) (*ir.Program, *ir.Func, error) {
	em := methodOf(prog, entry)
	if em == nil {
		_, err := jit.CompileProgram(prog, c.Config, c.Model)
		return prog, entry, err
	}
	ent, _, err := cache.Compile(prog, c.Config, c.Model, jit.CompileOptions{})
	if err != nil {
		return nil, nil, err
	}
	cm := ent.Program.MethodByName(em.QualifiedName())
	if cm == nil || cm.Fn == nil {
		return nil, nil, fmt.Errorf("cached program has no entry method %s", em.QualifiedName())
	}
	return ent.Program, cm.Fn, nil
}

// methodOf finds the method whose body is fn, or nil.
func methodOf(p *ir.Program, fn *ir.Func) *ir.Method {
	for _, m := range p.Methods {
		if m.Fn == fn {
			return m
		}
	}
	return nil
}

func interpretFresh(c Case, input int64) (Outcome, error) {
	prog, entry := c.Gen()
	return interpret(prog, entry, c.Model, input)
}

func interpret(p *ir.Program, entry *ir.Func, m *arch.Model, input int64) (Outcome, error) {
	mach := machine.New(m, p)
	out, err := mach.Call(entry, input)
	if err != nil {
		return Outcome{}, err
	}
	return Outcome{Value: out.Value, Exc: out.Exc}, nil
}

// snapshot is one timeline entry: method m's body right after pass, plus
// how long the pass ran.
type snapshot struct {
	m       *ir.Method
	pass    string
	fn      *ir.Func
	elapsed time.Duration
}

// bisect finds the first pass after which the program's behaviour on the
// diverging input no longer matches the baseline. It recompiles a fresh copy
// once, whole-program and with the structural verifier on, under an AfterPass
// observer that clones every function after every pass, then replays the
// timeline: evaluation step i runs the program with every method's body set
// to its latest snapshot at or before i (methods not yet compiled keep their
// unoptimized bodies). Method.Fn swapping is sound because the machine
// resolves every call through Callee.Fn at call time and Func.Clone shares
// the program-level metadata.
func bisect(c Case, div *Divergence, rep *Report) error {
	prog, entry := c.Gen()

	var entryMethod *ir.Method
	initial := make(map[*ir.Method]*ir.Func)
	owner := make(map[*ir.Func]*ir.Method)
	for _, m := range prog.Methods {
		if m.Fn == nil {
			continue
		}
		if m.Fn == entry {
			entryMethod = m
		}
		initial[m] = m.Fn.Clone()
		owner[m.Fn] = m
	}
	if entryMethod == nil {
		return fmt.Errorf("entry function %s is not a method of the program", entry.Name)
	}

	var timeline []snapshot
	cfg := c.Config
	cfg.Verify = true
	_, err := jit.CompileProgramWith(prog, cfg, c.Model, jit.CompileOptions{
		AfterPass: func(pass string, f *ir.Func, elapsed time.Duration) error {
			timeline = append(timeline, snapshot{m: owner[f], pass: pass, fn: f.Clone(), elapsed: elapsed})
			return nil
		},
	})
	if err != nil {
		return fmt.Errorf("observed compile: %w", err)
	}

	compiled := make(map[*ir.Method]*ir.Func, len(owner))
	for f, m := range owner {
		compiled[m] = f
	}
	current := make(map[*ir.Method]*ir.Func, len(initial))
	for m, f := range initial {
		current[m] = f
	}
	// One machine serves every replay. The timeline swaps Method.Fn to a
	// different *ir.Func snapshot between evaluations, and the machine caches
	// prepared tables and closure-compiled bodies keyed by Func identity —
	// without dropping them, a long timeline would retain every snapshot ever
	// replayed. ResetPrepared is exactly the invalidation hook for this.
	mach := machine.New(c.Model, prog)
	eval := func() (Outcome, error) {
		for m, f := range current {
			m.Fn = f
		}
		defer func() {
			for m, f := range compiled {
				m.Fn = f
			}
		}()
		mach.ResetPrepared()
		mach.Heap.Reset()
		mach.Stats = machine.ExecStats{}
		mach.Cycles = 0
		out, err := mach.Call(entryMethod.Fn, div.Input)
		if err != nil {
			return Outcome{}, err
		}
		return Outcome{Value: out.Value, Exc: out.Exc}, nil
	}

	if out, err := eval(); err != nil {
		return fmt.Errorf("replaying unoptimized program: %w", err)
	} else if !out.Equal(div.Want) {
		return fmt.Errorf("generator is not deterministic: unoptimized replay %v, baseline %v", out, div.Want)
	}

	for _, s := range timeline {
		current[s.m] = s.fn
		rep.PassTimes = append(rep.PassTimes, PassTime{Method: s.m.QualifiedName(), Pass: s.pass, Elapsed: s.elapsed})
		out, err := eval()
		if err != nil {
			return fmt.Errorf("replaying after %s on %s: %w", s.pass, s.m.QualifiedName(), err)
		}
		if !out.Equal(div.Want) {
			rep.Pass = s.pass
			rep.Method = s.m.QualifiedName()
			rep.SnapshotIR = s.fn.String()
			return nil
		}
	}
	return fmt.Errorf("no pass diverges in replay (divergence was %v)", div)
}
