package main

import (
	"fmt"

	"trapnull/internal/arch"
	"trapnull/internal/ir"
	"trapnull/internal/jit"
	"trapnull/internal/machine"
	"trapnull/internal/randprog"
	"trapnull/internal/rt"
	"trapnull/internal/workloads"
)

// compileCold compiles seeded randprog programs plus the 17 suite programs
// under every paper configuration of each machine model with no compile
// cache, and runs each compiled program once at a small size. Program seeds
// are drawn from the workload seed.
type compileCold struct {
	seed  int64
	quick bool
	cells []coldCell
}

// randprogSize is the argument every generated program runs with, as in the
// randprog differential tests.
const randprogSize = 5

// coldCell is one (program, model, configuration) compile-and-run.
type coldCell struct {
	progSeed int64               // randprog seed; 0 for a suite program
	w        *workloads.Workload // suite program; nil for randprog
	model    *arch.Model
	cfg      jit.Config
	// The oracle outcome: the unoptimized program on the switch engine for
	// randprog, the pure-Go reference checksum for the suite. The
	// spec-violating IllegalImplicit configuration is run but not checked.
	checked bool
	wantV   int64
	wantE   rt.ExcKind
}

func (c coldCell) String() string {
	if c.w != nil {
		return c.model.Name + "/" + c.cfg.Name + "/" + c.w.Name
	}
	return fmt.Sprintf("%s/%s/rand%d", c.model.Name, c.cfg.Name, c.progSeed)
}

// programs is the number of randprog programs per pass.
func (s *compileCold) programs() int {
	if s.quick {
		return 12
	}
	return 400
}

type platform struct {
	model   *arch.Model
	configs []jit.Config
}

func platforms() []platform {
	return []platform{{arch.IA32Win(), jit.WindowsConfigs()}, {arch.PPCAIX(), jit.AIXConfigs()}}
}

// setup computes every oracle outcome, then runs one warm-up pass.
func (s *compileCold) setup() error {
	s.cells = s.cells[:0]
	for i := 1; i <= s.programs(); i++ {
		seed := s.seed*100_000 + int64(i)
		for _, pl := range platforms() {
			prog, fn := randprog.Generate(randprog.DefaultConfig(seed))
			m := machine.New(pl.model, prog)
			m.Engine = machine.EngineSwitch
			out, err := m.Call(fn, randprogSize)
			if err != nil {
				return fmt.Errorf("oracle for rand%d on %s: %w", seed, pl.model.Name, err)
			}
			for _, cfg := range pl.configs {
				s.cells = append(s.cells, coldCell{progSeed: seed, model: pl.model, cfg: cfg,
					checked: !cfg.SkipGuardCheck, wantV: out.Value, wantE: out.Exc})
			}
		}
	}
	for _, w := range workloads.All() {
		want := w.Ref(w.TestN)
		for _, pl := range platforms() {
			for _, cfg := range pl.configs {
				s.cells = append(s.cells, coldCell{w: w, model: pl.model, cfg: cfg, checked: true, wantV: want})
			}
		}
	}
	s.pass(newProbe(false), newTally())
	return nil
}

func (s *compileCold) pass(p *probe, t *tally) {
	for _, c := range s.cells {
		t.done(c.String(), guarded(func() error { return s.cell(p, t, c) }))
	}
	t.compileToPeak = sumDurations(t.compiles)
}

// generate builds a fresh copy of the cell's program and its entry function.
func (c coldCell) generate(p *probe) (*ir.Program, *ir.Func) {
	if c.w != nil {
		prog, entry := build(p, c.w)
		return prog, entry.Fn
	}
	var prog *ir.Program
	var fn *ir.Func
	p.do(spGen, func() { prog, fn = randprog.Generate(randprog.DefaultConfig(c.progSeed)) })
	return prog, fn
}

func (c coldCell) n() int64 {
	if c.w != nil {
		return c.w.TestN
	}
	return randprogSize
}

// cell compiles a fresh program — with the production pipeline, or with
// the pass replica when tracing so every pass gets its own span — and runs
// it once.
func (s *compileCold) cell(p *probe, t *tally, c coldCell) error {
	prog, fn := c.generate(p)
	var err error
	if p.tracing {
		_, err = compileReplica(p, t, prog, c.cfg, c.model)
	} else {
		_, err = compile(p, t, prog, c.cfg, c.model, jit.CompileOptions{})
	}
	if err != nil {
		return err
	}
	m := newMachine(p, c.model, prog)
	out, err := run(p, t, m, engineSpan(m), fn, c.n())
	t.addExec(m.Stats)
	t.simCycles += m.Cycles
	if !c.checked {
		return nil
	}
	if err != nil {
		return err
	}
	if out.Exc != c.wantE || (c.wantE == rt.ExcNone && out.Value != c.wantV) {
		return fmt.Errorf("outcome (%d, %v), want (%d, %v)", out.Value, out.Exc, c.wantV, c.wantE)
	}
	return nil
}
