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

// TestSpecBudgetExhaustionSurfaced: with a tight tier-2 recompile budget, a
// workload whose profile keeps betraying speculation (LateNullStorm: both
// speculated checks go null late, every invocation) must park at the
// conservative closure tier once the budget is spent — surfaced in
// TierReport.BudgetExhausted — instead of recompiling forever, and every
// invocation still matches the reference.
func TestSpecBudgetExhaustionSurfaced(t *testing.T) {
	model := arch.IA32Win()
	cfg := jit.ConfigPhase1Phase2()
	w := workloads.LateNullStorm()
	n := w.TestN

	cache := jit.NewCache(0)
	_, entryM := w.Build()
	specCompile := func(mask map[string][]int) (*ir.Program, error) {
		p, _ := w.Build()
		entry, _, err := cache.Compile(p, cfg, model, jit.CompileOptions{Spec: mask})
		if err != nil {
			return nil, err
		}
		return entry.Program, nil
	}

	prog, err := specCompile(nil)
	if err != nil {
		t.Fatal(err)
	}
	em := prog.MethodByName(entryM.QualifiedName())

	mach := machine.New(model, prog)
	mach.EnableTiering(machine.TierPolicy{
		T1Blocks: 64, T2Blocks: 64, MinCheckExecs: 8, SpecRecompileBudget: 1,
	}, specCompile)

	want := w.Ref(n)
	for rep := 0; rep < 6; rep++ {
		out, err := mach.Call(em.Fn, n)
		if err != nil {
			t.Fatalf("rep %d: %v", rep, err)
		}
		if out.Exc != rt.ExcNone || out.Value != want {
			t.Fatalf("rep %d: outcome %+v, want value %d", rep, out, want)
		}
	}

	rep := mach.TierReport()
	if len(rep.BudgetExhausted) == 0 {
		t.Fatalf("budget of 1 never exhausted despite repeated deopts (events: %+v)", rep.Events)
	}
	sawEvent := false
	promotes := 0
	for _, ev := range rep.Events {
		if ev.Kind == "spec-budget-exhausted" {
			sawEvent = true
		}
		if ev.Kind == "promote-t2" {
			promotes++
		}
	}
	if !sawEvent {
		t.Fatal("no spec-budget-exhausted event in the tier log")
	}
	if promotes > 1 {
		t.Fatalf("budget of 1 allowed %d speculative recompiles", promotes)
	}
}
