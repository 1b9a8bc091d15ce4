package bench

import (
	"testing"

	"trapnull/internal/arch"
	"trapnull/internal/jit"
	"trapnull/internal/machine"
	"trapnull/internal/workloads"
)

// TestEngineDifferentialAllWorkloads is the workload half of the engine
// equivalence proof: every workload under every configuration on both arch
// models must produce identical Outcome, ExecStats, and Cycles on the
// closure-compiled engine and the reference switch interpreter. Cycle counts
// and trap classification are the paper's measurements, so any divergence
// here is a correctness bug, not a performance detail. The closure engine
// runs eager, with every body compiled before the call (it must enter the
// closure engine), and lazy, compiling only the bodies that turn hot.
func TestEngineDifferentialAllWorkloads(t *testing.T) {
	sweeps := []struct {
		name    string
		model   func() *arch.Model
		configs []jit.Config
		work    []*workloads.Workload
	}{
		{"win/jbytemark", arch.IA32Win, jit.WindowsConfigs(), workloads.JBYTEmark()},
		{"win/specjvm98", arch.IA32Win, jit.WindowsConfigs(), workloads.SPECjvm98()},
		{"aix/jbytemark", arch.PPCAIX, jit.AIXConfigs(), workloads.JBYTEmark()},
		{"aix/specjvm98", arch.PPCAIX, jit.AIXConfigs(), workloads.SPECjvm98()},
	}

	type result struct {
		out   machine.Outcome
		err   string
		stats machine.ExecStats
		cyc   int64
	}
	// runCell builds and compiles the workload from scratch for each side
	// (switch, eager or lazy): compilation is deterministic, so every side
	// sees identical IR.
	runCell := func(side string, model *arch.Model, cfg jit.Config, w *workloads.Workload) (result, *machine.Machine) {
		p, entryM := w.Build()
		if _, err := jit.CompileProgram(p, cfg, model); err != nil {
			return result{err: err.Error()}, nil
		}
		m := machine.New(model, p)
		m.Engine = machine.EngineClosure
		switch side {
		case "switch":
			m.Engine = machine.EngineSwitch
		case "eager":
			m.PrecompileClosures()
		}
		out, err := m.Call(entryM.Fn, w.TestN)
		r := result{out: out, stats: m.Stats, cyc: m.Cycles}
		if err != nil {
			r.err = err.Error()
		}
		return r, m
	}

	for _, sw := range sweeps {
		for _, cfg := range sw.configs {
			for _, w := range sw.work {
				s, _ := runCell("switch", sw.model(), cfg, w)
				for _, side := range []string{"eager", "lazy"} {
					c, m := runCell(side, sw.model(), cfg, w)
					id := sw.name + "/" + cfg.Name + "/" + w.Name + "/" + side
					if c.out != s.out {
						t.Errorf("%s: outcome diverges: closure=%+v switch=%+v", id, c.out, s.out)
					}
					if c.err != s.err {
						t.Errorf("%s: error diverges: closure=%q switch=%q", id, c.err, s.err)
					}
					if c.stats != s.stats {
						t.Errorf("%s: stats diverge:\nclosure %+v\nswitch  %+v", id, c.stats, s.stats)
					}
					if c.cyc != s.cyc {
						t.Errorf("%s: cycles diverge: closure=%d switch=%d", id, c.cyc, s.cyc)
					}
					if side == "eager" && m != nil && m.ClosureRuns() == 0 {
						t.Errorf("%s: the eager side never entered the closure engine", id)
					}
				}
			}
		}
	}
}
