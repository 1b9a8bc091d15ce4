package bench

import (
	"encoding/json"
	"errors"
	"strconv"
	"strings"
	"testing"

	"trapnull/internal/arch"
	"trapnull/internal/ir"
	"trapnull/internal/jit"
	"trapnull/internal/machine"
	"trapnull/internal/rt"
	"trapnull/internal/workloads"
)

// TestDecisionExports covers the adaptive decisions no checked-in baseline
// carries, through the machine's decision log and the reports and JSON
// events projected from it:
//   - pin: a RecompileBudget of 1 spends the budget on TrapStorm's first
//     trigger, which demotes every site of the method (site -1, demoted =
//     the method's trap sites);
//   - recompile-error: a recompiler that fails pins the method right after
//     the demote it was compiling;
//   - spec-budget-exhausted: the tier event's JSON fields and the fields
//     nulljit -tier prints for it.
//
// backoff-armed is logged but never exported as a -degradation event.
func TestDecisionExports(t *testing.T) {
	model, cfg, w := arch.IA32Win(), ImplicitConfigWin(), workloads.TrapStorm()
	demote := func(d map[string][]int) (*ir.Program, error) {
		p, _ := w.Build()
		_, err := jit.CompileProgramWith(p, cfg, model, jit.CompileOptions{Demote: d})
		return p, err
	}
	quick := governorPolicy(true)

	t.Run("pin", func(t *testing.T) {
		policy := quick
		policy.RecompileBudget = 1
		m, fn := governed(t, w, model, cfg, policy, demote)
		sites := trapSites(fn)
		if sites < 2 {
			t.Fatalf("TrapStorm.main has %d trap sites; the pin must demote more than the storming one", sites)
		}
		runReps(t, m, w, fn, 3)
		c := &PolicyCell{GovernorReport: m.GovernorReport(), Decisions: m.Decisions()}
		if c.Recompiles != 1 || c.Demotions != sites || strings.Join(c.Pinned, ",") != "TrapStorm.main" {
			t.Errorf("recompiles %d, demotions %d, pinned %v; want 1, %d, [TrapStorm.main]",
				c.Recompiles, c.Demotions, c.Pinned, sites)
		}
		want := `[{"method":"TrapStorm.main","kind":"pin","site":-1,"demoted":` + strconv.Itoa(sites) + `}]`
		if got := eventsJSON(t, degradationJSON(c)); got != want {
			t.Errorf("events %s, want %s", got, want)
		}
		if !logged(c, "backoff-armed") {
			t.Error("the pin armed no backoff in the decision log")
		}
	})

	t.Run("recompile-error", func(t *testing.T) {
		failing := func(map[string][]int) (*ir.Program, error) { return nil, errors.New("injected compile failure") }
		m, fn := governed(t, w, model, cfg, quick, failing)
		runReps(t, m, w, fn, 3)
		c := &PolicyCell{GovernorReport: m.GovernorReport(), Decisions: m.Decisions()}
		if c.Recompiles != 1 || strings.Join(c.Pinned, ",") != "TrapStorm.main" {
			t.Errorf("recompiles %d, pinned %v; want 1, [TrapStorm.main]", c.Recompiles, c.Pinned)
		}
		want := `[{"method":"TrapStorm.main","kind":"demote","site":3,"demoted":1},` +
			`{"method":"TrapStorm.main","kind":"recompile-error","site":-1,"demoted":1}]`
		if got := eventsJSON(t, degradationJSON(c)); got != want {
			t.Errorf("events %s, want %s", got, want)
		}
	})

	t.Run("spec-budget-exhausted", func(t *testing.T) {
		w := workloads.LateNullStorm()
		m, fn := newTieredMachine(t, w, jit.ConfigPhase1Phase2(), model, machine.TierPolicy{
			T1Blocks: 64, T2Blocks: 64, MinCheckExecs: 8, SpecRecompileBudget: 1,
		}, jit.NewCache(0))
		runReps(t, m, w, fn, 6)
		c := &PolicyCell{TierReport: m.TierReport(), Decisions: m.Decisions()}
		var ev *jsonTierDecision
		for _, e := range tierJSON(c).(jsonTierCell).Events {
			if e.Kind == "spec-budget-exhausted" {
				ev = &e
			}
		}
		if ev == nil {
			t.Fatalf("no spec-budget-exhausted in the -tier events %+v", c.TierReport.Events)
		}
		if got, _ := json.Marshal(ev); string(got) != `{"method":"LateNullStorm.main","kind":"spec-budget-exhausted","check":-1,"specs":0}` {
			t.Errorf("-tier event %s", got)
		}
		// nulljit -tier prints the view's Kind and Subject for it.
		for _, e := range c.TierReport.Events {
			if e.Kind == "spec-budget-exhausted" && (e.Subject != "LateNullStorm.main" || e.Ord != -1 || e.Count != 0) {
				t.Errorf("tier view event %+v", e)
			}
		}
	})
}

// governed compiles w under cfg and returns a machine governed by policy
// with compile as its recompiler, and the entry body.
func governed(t *testing.T, w *workloads.Workload, model *arch.Model, cfg jit.Config,
	policy machine.GovernorPolicy, compile machine.Recompiler) (*machine.Machine, *ir.Func) {
	t.Helper()
	prog, entryM := w.Build()
	if _, err := jit.CompileProgram(prog, cfg, model); err != nil {
		t.Fatal(err)
	}
	m := machine.New(model, prog)
	m.EnableGovernor(policy, compile)
	return m, entryM.Fn
}

// runReps invokes fn reps times, requiring the reference checksum each time.
func runReps(t *testing.T, m *machine.Machine, w *workloads.Workload, fn *ir.Func, reps int) {
	t.Helper()
	want := w.Ref(w.TestN)
	for rep := 0; rep < reps; rep++ {
		out, err := m.Call(fn, w.TestN)
		if err != nil || out.Exc != rt.ExcNone || out.Value != want {
			t.Fatalf("invocation %d: %+v, %v; want value %d", rep+1, out, err, want)
		}
	}
}

// trapSites counts fn's distinct trap-site ordinals.
func trapSites(fn *ir.Func) int {
	seen := map[int]bool{}
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			if in.TrapSite != 0 {
				seen[int(in.TrapSite)] = true
			}
		}
	}
	return len(seen)
}

// eventsJSON is the compact "events" array of one exported cell.
func eventsJSON(t *testing.T, cell any) string {
	t.Helper()
	data, err := json.Marshal(cell)
	if err != nil {
		t.Fatal(err)
	}
	var raw struct {
		Events json.RawMessage `json:"events"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	return string(raw.Events)
}

func logged(c *PolicyCell, kind string) bool {
	for _, ev := range c.Decisions {
		if ev.Kind == kind {
			return true
		}
	}
	return false
}
