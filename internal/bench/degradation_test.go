package bench

import (
	"testing"

	"trapnull/internal/arch"
	"trapnull/internal/ir"
	"trapnull/internal/jit"
	"trapnull/internal/machine"
	"trapnull/internal/rt"
	"trapnull/internal/workloads"
)

// TestDegradationGovernorWins is the governor's acceptance gate: on the
// TrapStorm workload the governed steady state must be strictly cheaper than
// all-implicit on BOTH architecture models (the traps it stops paying) and
// within 5% of all-explicit (the checks it converged to), with at least one
// demotion recorded inside the recompile budget.
func TestDegradationGovernorWins(t *testing.T) {
	rep, err := RunDegradationAll(DegradationOptions{Quick: true})
	if err != nil {
		t.Fatalf("degradation sweep failed: %v", err)
	}
	for _, m := range []*DegradationMatrix{rep.Win, rep.AIX} {
		imp := m.Cell("implicit", "TrapStorm")
		exp := m.Cell("explicit", "TrapStorm")
		gov := m.Cell("governed", "TrapStorm")
		if imp == nil || exp == nil || gov == nil || imp.Failed() || exp.Failed() || gov.Failed() {
			t.Fatalf("%s: missing or failed TrapStorm cells", m.Model.Name)
		}
		if gov.SteadyCycles >= imp.SteadyCycles {
			t.Errorf("%s: governed steady state %d is not better than all-implicit %d",
				m.Model.Name, gov.SteadyCycles, imp.SteadyCycles)
		}
		if gov.SteadyCycles*100 > exp.SteadyCycles*105 {
			t.Errorf("%s: governed steady state %d is more than 5%% above all-explicit %d",
				m.Model.Name, gov.SteadyCycles, exp.SteadyCycles)
		}
		if gov.Demotions < 1 {
			t.Errorf("%s: governor demoted nothing on TrapStorm", m.Model.Name)
		}
		budget := machine.DefaultGovernorPolicy().RecompileBudget
		if gov.Recompiles > budget {
			t.Errorf("%s: %d recompiles exceed the budget %d", m.Model.Name, gov.Recompiles, budget)
		}
		// The stormy site is demoted, the clean site is not: steady state
		// still executes explicit checks but strictly fewer than the
		// all-explicit row (the clean site kept its free implicit check).
		if gov.SteadyChecks == 0 || gov.SteadyChecks >= exp.SteadyChecks {
			t.Errorf("%s: governed steady checks %d should be in (0, %d)",
				m.Model.Name, gov.SteadyChecks, exp.SteadyChecks)
		}
	}
}

// TestGovernorConvergesUnderFlappingNull is the governor's differential
// gate: under the flapping adversary — two sites storming in alternating
// windows, built to make a reactive policy thrash — every governed
// invocation must produce the exact Outcome of an untiered switch-engine
// oracle, and the recompile traffic must respect the budget and converge.
func TestGovernorConvergesUnderFlappingNull(t *testing.T) {
	model := arch.IA32Win()
	cfg := ImplicitConfigWin()
	w := workloads.FlappingNull()
	n := w.TestN
	const reps = 6

	cache := jit.NewCache(0)
	_, entryM := w.Build()
	demoteCompile := func(demote map[string][]int) (*ir.Program, error) {
		p, _ := w.Build()
		entry, _, err := cache.Compile(p, cfg, model, jit.CompileOptions{Demote: demote})
		if err != nil {
			return nil, err
		}
		return entry.Program, nil
	}

	prog, err := demoteCompile(nil)
	if err != nil {
		t.Fatal(err)
	}
	em := prog.MethodByName(entryM.QualifiedName())
	if em == nil || em.Fn == nil {
		t.Fatal("compiled program lacks entry method")
	}

	gov := machine.New(model, prog)
	policy := machine.DefaultGovernorPolicy()
	policy.MinSiteExecs = 64
	policy.BackoffTraps = 8
	gov.EnableGovernor(policy, demoteCompile)

	// Untiered switch-engine oracle on the same pristine implicit program
	// (execution never mutates shared IR; each machine decodes its own
	// tables).
	oracle := machine.New(model, prog)
	oracle.Engine = machine.EngineSwitch

	for rep := 0; rep < reps; rep++ {
		got, err := gov.Call(em.Fn, n)
		if err != nil {
			t.Fatalf("rep %d: governed: %v", rep, err)
		}
		want, err := oracle.Call(em.Fn, n)
		if err != nil {
			t.Fatalf("rep %d: oracle: %v", rep, err)
		}
		if got != want {
			t.Fatalf("rep %d: governed outcome %+v diverges from oracle %+v", rep, got, want)
		}
		if got.Exc != rt.ExcNone || got.Value != w.Ref(n) {
			t.Fatalf("rep %d: outcome %+v does not match reference %d", rep, got, w.Ref(n))
		}
	}

	grep := gov.GovernorReport()
	if grep.Demotions < 1 {
		t.Fatal("flapping profile never triggered a demotion")
	}
	if grep.Recompiles > policy.RecompileBudget {
		t.Fatalf("%d recompiles exceed the budget %d", grep.Recompiles, policy.RecompileBudget)
	}
	// Convergence: once the flapping sites are demoted (or the budget pinned
	// the method), a further invocation performs no new recompiles.
	before := grep.Recompiles
	if _, err := gov.Call(em.Fn, n); err != nil {
		t.Fatal(err)
	}
	if after := gov.GovernorReport().Recompiles; after != before {
		t.Fatalf("governor still recompiling after convergence: %d -> %d", before, after)
	}
}
