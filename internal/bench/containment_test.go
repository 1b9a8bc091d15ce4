package bench

import (
	"strings"
	"testing"

	"trapnull/internal/arch"
	"trapnull/internal/ir"
	"trapnull/internal/jit"
	"trapnull/internal/workloads"
)

// poisonedWorkload builds a workload whose builder panics outright — the
// harshest failure a cell can inject into the worker pool.
func poisonedWorkload() *workloads.Workload {
	return &workloads.Workload{
		Name:  "Poisoned",
		Suite: "test",
		Build: func() (*ir.Program, *ir.Method) {
			panic("deliberately poisoned workload")
		},
		N: 1, TestN: 1,
		Ref: func(n int64) int64 { return 0 },
	}
}

// TestPanickingWorkloadDoesNotAbortSweep: a panicking cell degrades to a
// deterministic ERROR entry while every other cell of the sweep is still
// measured; the sweep reports the failure without dropping the matrix. The
// parallel paper sweep and both policy sweeps run the same cell core, so the
// poisoned workload goes through all three.
func TestPanickingWorkloadDoesNotAbortSweep(t *testing.T) {
	model := arch.IA32Win()
	ws := append(workloads.JBYTEmark()[:3], poisonedWorkload())
	cfgs := jit.WindowsConfigs()[:3]

	m, err := Run(model, cfgs, ws, Options{Quick: true, Parallelism: 4})
	if err == nil {
		t.Fatal("expected an aggregate sweep error")
	}
	if m == nil {
		t.Fatal("matrix must be returned alongside the error")
	}
	if !strings.Contains(err.Error(), "Poisoned") || !strings.Contains(err.Error(), "panic") {
		t.Errorf("aggregate error does not identify the failing cell: %v", err)
	}

	for _, cfg := range cfgs {
		for _, w := range ws {
			c := m.Cell(cfg.Name, w.Name)
			if c == nil {
				t.Fatalf("%s/%s: missing cell", cfg.Name, w.Name)
			}
			if w.Name == "Poisoned" {
				if !c.Failed() {
					t.Errorf("%s/Poisoned: expected error cell", cfg.Name)
				}
				if c.Err != "panic: deliberately poisoned workload" {
					t.Errorf("%s/Poisoned: Err = %q, want deterministic panic reason", cfg.Name, c.Err)
				}
				if got := c.ErrText(); got != "ERROR(panic: deliberately poisoned workload)" {
					t.Errorf("%s/Poisoned: ErrText = %q", cfg.Name, got)
				}
			} else {
				if c.Failed() {
					t.Errorf("%s/%s: healthy cell poisoned: %s", cfg.Name, w.Name, c.Err)
				}
				if c.Cycles == 0 {
					t.Errorf("%s/%s: healthy cell not measured", cfg.Name, w.Name)
				}
			}
		}
	}

	policySweeps := []struct {
		name string
		ws   []*workloads.Workload
		run  func([]*workloads.Workload) (*PolicyMatrix, error)
	}{
		{"tiered", []*workloads.Workload{workloads.NumericSort(), poisonedWorkload(), workloads.BigOffsetWalk()},
			func(ws []*workloads.Workload) (*PolicyMatrix, error) {
				return RunTiered(model, jit.ConfigPhase1Phase2(), ws, TierOptions{Quick: true})
			}},
		{"degradation", []*workloads.Workload{workloads.TrapStorm(), poisonedWorkload(), workloads.FlappingNull()},
			func(ws []*workloads.Workload) (*PolicyMatrix, error) {
				return RunDegradation(model, ImplicitConfigWin(), ws, DegradationOptions{Quick: true})
			}},
	}
	for _, ps := range policySweeps {
		m, err := ps.run(ps.ws)
		if err == nil {
			t.Fatalf("%s: expected an aggregate sweep error", ps.name)
		}
		if m == nil {
			t.Fatalf("%s: matrix must be returned alongside the error", ps.name)
		}
		for _, pol := range m.Policies {
			if id := pol + "/Poisoned: panic"; !strings.Contains(err.Error(), id) {
				t.Errorf("%s: aggregate error does not name %s: %v", ps.name, id, err)
			}
			for _, w := range ps.ws {
				c := m.Cell(pol, w.Name)
				if c == nil {
					t.Fatalf("%s: %s/%s: missing cell", ps.name, pol, w.Name)
				}
				if w.Name != "Poisoned" {
					if c.Failed() || c.SteadyCycles == 0 {
						t.Errorf("%s: %s/%s: healthy cell not measured: %q", ps.name, pol, w.Name, c.Err)
					}
				} else if c.Err != "panic: deliberately poisoned workload" {
					t.Errorf("%s: %s/Poisoned: Err = %q, want deterministic panic reason", ps.name, pol, c.Err)
				}
			}
		}
		if table, want := m.Table(), "ERROR(panic: deliberately poisoned workload)"; strings.Count(table, want) != len(m.Policies) {
			t.Errorf("%s: table does not render one %s per policy:\n%s", ps.name, want, table)
		}
	}
}

// TestErrorCellsRenderDeterministically: the rendered table text of a
// failing sweep must be byte-identical no matter how many workers ran it.
func TestErrorCellsRenderDeterministically(t *testing.T) {
	model := arch.IA32Win()
	render := func(par int) string {
		ws := append(workloads.JBYTEmark()[:3], poisonedWorkload())
		cfgs := jit.WindowsConfigs()[:3]
		m, err := Run(model, cfgs, ws, Options{Quick: true, Parallelism: par})
		if err == nil {
			t.Fatal("expected sweep error")
		}
		var rows []string
		for _, cfg := range cfgs {
			for _, w := range ws {
				rows = append(rows, cellText(m.Cell(cfg.Name, w.Name), func(c *Cell) string { return "ok" }))
			}
		}
		return err.Error() + "\n" + strings.Join(rows, "\n")
	}
	if serial, parallel := render(1), render(4); serial != parallel {
		t.Errorf("error rendering differs by worker count:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
}

// TestPassErrorReasonIsDeterministic pins the PassError-to-cell-text
// contract: reasons carry no addresses, stacks or timings.
func TestPassErrorReasonIsDeterministic(t *testing.T) {
	pe := &jit.PassError{Pass: "phase2", Func: "main", Panic: "boom", Stack: []byte("stack..."), IRDump: "func..."}
	if got := failReason(pe); got != "panic in phase2: boom" {
		t.Errorf("panic reason = %q", got)
	}
	ve := &jit.PassError{Pass: "cleanup", Func: "main", Err: errFixed("bad edge")}
	if got := failReason(ve); got != "invalid IR after cleanup" {
		t.Errorf("verifier reason = %q", got)
	}
}

type errFixed string

func (e errFixed) Error() string { return string(e) }
