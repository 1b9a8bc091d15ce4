package randprog

import (
	"testing"

	"trapnull/internal/arch"
	"trapnull/internal/jit"
	"trapnull/internal/machine"
)

// TestEngineDifferentialRandprog is the fuzz half of the engine equivalence
// proof: the closure-compiled engine and the reference switch interpreter
// must agree on Outcome, ExecStats, Cycles, AND errors over a large corpus
// of generated programs — uncompiled and fully optimized, on both arch
// models. The closure engine runs twice: eager, with every body compiled
// before the call (these small runs never turn a body hot, so this is the
// side that tests closure code, and it must enter the closure engine), and
// lazy, as a default machine runs them. Unlike the output-only deep fuzz,
// this compares the complete accounting, because cycle counts and trap
// classification are the paper's measurements. Each program also runs
// under step limits at k/9 of its reference step count (k = 1..8), so the
// closure engine's hand-off to the interpreter at a stretch the limit
// could fire in is compared on fused stretches, calls and try regions too.
func TestEngineDifferentialRandprog(t *testing.T) {
	first, last := int64(7000), int64(8200) // 1200 seeds
	if testing.Short() {
		last = first + 150
	}
	const limitSteps = 9 // limits at k/limitSteps of the reference run

	type result struct {
		out   machine.Outcome
		err   string
		stats machine.ExecStats
		cyc   int64
	}

	variant := func(seed int64) Config {
		cfg := DefaultConfig(seed)
		switch seed % 4 {
		case 1:
			cfg.MaxDepth = 5
		case 2:
			cfg.AllowTry = false
			cfg.MaxStmts = 10
		case 3:
			cfg.AllowNull = false
			cfg.AllowOOB = false
		}
		return cfg
	}

	models := []*arch.Model{arch.IA32Win(), arch.PPCAIX()}
	for seed := first; seed < last; seed++ {
		// Cycle through all four (model, compiled?) combinations: even seeds
		// run the raw generated program, odd seeds run it through the full
		// Phase1+2 pipeline (or the AIX speculation pipeline on the AIX
		// model), so both optimized and unoptimized IR shapes hit both
		// engines on both models.
		model := models[(seed>>1)%2]
		p, fn := Generate(variant(seed))
		if seed%2 == 1 {
			cfg := jit.ConfigPhase1Phase2()
			if model.Name == "ppc-aix" {
				cfg = jit.ConfigAIXSpeculation()
			}
			if _, err := jit.CompileProgram(p, cfg, model); err != nil {
				t.Fatalf("seed %d: compile: %v", seed, err)
			}
		}
		// run executes the program on a fresh machine, on the switch
		// interpreter or on the closure engine eager or lazy; limit 0 keeps
		// the default step limit.
		run := func(side string, limit int64) (result, *machine.Machine) {
			m := machine.New(model, p)
			m.Engine = machine.EngineClosure
			switch side {
			case "switch":
				m.Engine = machine.EngineSwitch
			case "eager":
				m.PrecompileClosures()
			}
			if limit > 0 {
				m.MaxSteps = limit
			}
			out, err := m.Call(fn, 5)
			r := result{out: out, stats: m.Stats, cyc: m.Cycles}
			if err != nil {
				r.err = err.Error()
			}
			return r, m
		}
		var steps int64 // the reference run's step count, from k = 0
		for k := int64(0); k < limitSteps; k++ {
			var limit int64
			if k > 0 {
				limit = max(1, steps*k/limitSteps)
			}
			s, sm := run("switch", limit)
			if k == 0 {
				steps = sm.Steps()
			}
			for _, side := range []string{"eager", "lazy"} {
				c, cm := run(side, limit)
				if c != s {
					t.Fatalf("seed %d [%s] limit %d: engines diverge:\n%-7s out=%+v err=%q stats=%+v cycles=%d\nswitch  out=%+v err=%q stats=%+v cycles=%d",
						seed, model.Name, limit,
						side, c.out, c.err, c.stats, c.cyc,
						s.out, s.err, s.stats, s.cyc)
				}
				if side == "eager" && cm.ClosureRuns() == 0 {
					t.Fatalf("seed %d [%s] limit %d: the eager side never entered the closure engine", seed, model.Name, limit)
				}
			}
		}
	}
}
