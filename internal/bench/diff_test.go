package bench

import (
	"encoding/json"
	"strings"
	"testing"
)

// diffFixture builds a small baseline report document for the gate tests.
func diffFixture(t *testing.T) []byte {
	t.Helper()
	rep := jsonReport{
		GeneratedBy: "trapnull benchtab",
		Matrices: map[string][]jsonCell{
			"windows_jbytemark": {
				{Workload: "Assignment", Config: "Base", Cycles: 100000, TrapsTaken: 0, ExplicitChecks: 50},
				{Workload: "Assignment", Config: "Opt", Cycles: 80000, TrapsTaken: 2, ExplicitChecks: 10},
				{Workload: "StringSort", Config: "Base", Error: "timeout"},
			},
		},
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// mutate unmarshals the fixture, applies f, and re-marshals it.
func mutate(t *testing.T, data []byte, f func(*jsonReport)) []byte {
	t.Helper()
	var rep jsonReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	f(&rep)
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestDiffIdenticalPasses pins the no-op case: a report diffed against itself
// has no regressions and renders the "no regressions" verdict.
func TestDiffIdenticalPasses(t *testing.T) {
	data := diffFixture(t)
	d, err := DiffReports(data, data, DiffOptions{CyclesTolerancePct: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Ok() {
		t.Fatalf("identical reports gated: %v", d.Regressions)
	}
	if !strings.Contains(d.Render(), "no regressions") {
		t.Errorf("render lacks the pass verdict:\n%s", d.Render())
	}
}

// TestDiffCatchesCycleRegression pins the core gate: a planted 10% cycle
// increase must fail under the default 2% tolerance and pass under a 15% one.
func TestDiffCatchesCycleRegression(t *testing.T) {
	base := diffFixture(t)
	cand := mutate(t, base, func(rep *jsonReport) {
		cells := rep.Matrices["windows_jbytemark"]
		cells[0].Cycles = cells[0].Cycles * 110 / 100
	})
	d, err := DiffReports(base, cand, DiffOptions{CyclesTolerancePct: 2})
	if err != nil {
		t.Fatal(err)
	}
	if d.Ok() {
		t.Fatal("10% cycle regression passed a 2% gate")
	}
	if len(d.Regressions) != 1 || !strings.Contains(d.Regressions[0], "cycles 100000 -> 110000") {
		t.Errorf("unexpected regressions: %v", d.Regressions)
	}
	loose, err := DiffReports(base, cand, DiffOptions{CyclesTolerancePct: 15})
	if err != nil {
		t.Fatal(err)
	}
	if !loose.Ok() {
		t.Errorf("10%% regression gated under a 15%% tolerance: %v", loose.Regressions)
	}
}

// TestDiffImprovementIsNote pins that a cycle drop never gates; it lands in
// the notes instead.
func TestDiffImprovementIsNote(t *testing.T) {
	base := diffFixture(t)
	cand := mutate(t, base, func(rep *jsonReport) {
		rep.Matrices["windows_jbytemark"][1].Cycles = 70000
	})
	d, err := DiffReports(base, cand, DiffOptions{CyclesTolerancePct: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Ok() {
		t.Fatalf("improvement gated: %v", d.Regressions)
	}
	found := false
	for _, n := range d.Notes {
		if strings.Contains(n, "improved") {
			found = true
		}
	}
	if !found {
		t.Errorf("improvement produced no note: %v", d.Notes)
	}
}

// TestDiffErrorTransitions pins the error-cell semantics: healthy→ERROR
// gates, ERROR→healthy is a note, ERROR→ERROR passes, and a cell vanishing
// from the candidate gates.
func TestDiffErrorTransitions(t *testing.T) {
	base := diffFixture(t)

	broken := mutate(t, base, func(rep *jsonReport) {
		c := &rep.Matrices["windows_jbytemark"][0]
		*c = jsonCell{Workload: c.Workload, Config: c.Config, Error: "checksum mismatch"}
	})
	d, _ := DiffReports(base, broken, DiffOptions{})
	if d.Ok() || !strings.Contains(strings.Join(d.Regressions, "\n"), "now fails") {
		t.Errorf("healthy->ERROR did not gate: %v", d.Regressions)
	}

	fixed := mutate(t, base, func(rep *jsonReport) {
		c := &rep.Matrices["windows_jbytemark"][2]
		*c = jsonCell{Workload: c.Workload, Config: c.Config, Cycles: 5}
	})
	d, _ = DiffReports(base, fixed, DiffOptions{})
	if !d.Ok() {
		t.Errorf("ERROR->healthy gated: %v", d.Regressions)
	}

	missing := mutate(t, base, func(rep *jsonReport) {
		rep.Matrices["windows_jbytemark"] = rep.Matrices["windows_jbytemark"][:2]
	})
	d, _ = DiffReports(base, missing, DiffOptions{})
	if d.Ok() || !strings.Contains(strings.Join(d.Regressions, "\n"), "missing") {
		t.Errorf("missing cell did not gate: %v", d.Regressions)
	}
}

// TestDiffIgnoresCompileCacheBlock: baselines written while the sweep ran a
// compile cache carry a top-level compile_cache block; the gate decodes past
// it and compares the cells alone.
func TestDiffIgnoresCompileCacheBlock(t *testing.T) {
	cur := diffFixture(t)
	old := strings.Replace(string(cur), `"matrices":`,
		`"compile_cache": [{"matrix": "windows_jbytemark", "lookups": 3, "hits": 0, "misses": 3, "evictions": 0}],
  "matrices":`, 1)
	if old == string(cur) {
		t.Fatal("fixture has no matrices key to splice the block before")
	}
	d, err := DiffReports([]byte(old), cur, DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Ok() {
		t.Errorf("a baseline's compile_cache block gated: %v", d.Regressions)
	}
	if r := d.Render(); strings.Contains(r, "cache") {
		t.Errorf("diff still reports on the compile cache:\n%s", r)
	}
}

// TestDiffStrictFates pins the fate-histogram switch: changes are notes by
// default and regressions under -strict-fates. Dynamic-counter drift is
// always a note.
func TestDiffStrictFates(t *testing.T) {
	base := mutate(t, diffFixture(t), func(rep *jsonReport) {
		rep.Matrices["windows_jbytemark"][0].TrapsTaken = 7
	})
	drifted := mutate(t, base, func(rep *jsonReport) {
		rep.Matrices["windows_jbytemark"][0].TrapsTaken = 9
	})
	d, _ := DiffReports(base, drifted, DiffOptions{})
	if !d.Ok() {
		t.Errorf("dynamic-counter drift gated without strict mode: %v", d.Regressions)
	}
	found := false
	for _, n := range d.Notes {
		if strings.Contains(n, "dynamic checks changed") {
			found = true
		}
	}
	if !found {
		t.Errorf("counter drift produced no note: %v", d.Notes)
	}
}

// TestDiffRoundTripSelf runs the real sweep through the gate: a quick
// benchtab JSON diffed against itself must pass, proving the gate tolerates
// the one legitimately noisy column (host compile µs) out of the box.
func TestDiffRoundTripSelf(t *testing.T) {
	rep, err := RunAll(Options{Quick: true, Parallelism: 4})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	a, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	// A second independent sweep differs only in host timings.
	rep2, err := RunAll(Options{Quick: true, Parallelism: 4})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	b, err := rep2.JSON()
	if err != nil {
		t.Fatal(err)
	}
	d, err := DiffReports(a, b, DiffOptions{CyclesTolerancePct: 0, StrictFates: true})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Ok() {
		t.Errorf("two sweeps of the same tree gate each other: %v", d.Regressions)
	}
}

// policyFixture builds a small -tier report document in the export shape.
func policyFixture(t *testing.T, edit func(c *jsonTierCell)) []byte {
	t.Helper()
	c := jsonTierCell{Workload: "LateNullStorm", Policy: "tiered-spec", Reps: 4,
		FirstCycles: 483004, SteadyCycles: 482404, CompileToPeak: 1309,
		PromotionsT1: 1, PromotionsT2: 1, Deopts: 1}
	if edit != nil {
		edit(&c)
	}
	data, err := json.MarshalIndent(jsonPolicyReport{
		GeneratedBy: "trapnull benchtab " + tierKind.flag,
		Matrices:    map[string][]any{"windows_tiered": {c}},
	}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestDiffPolicyReport pins the policy-sweep gate, selected by generated_by:
// steady and first cycles gate under the cycle tolerance, the adaptive
// decision counts gate on any change, compile-to-peak (host time) never
// gates, and a report of another kind is refused.
func TestDiffPolicyReport(t *testing.T) {
	base := policyFixture(t, nil)
	for _, c := range []struct {
		name string
		edit func(c *jsonTierCell)
		gate string // "" = passes; otherwise a substring of the regression
	}{
		{"identical", func(*jsonTierCell) {}, ""},
		{"compile-to-peak", func(c *jsonTierCell) { c.CompileToPeak *= 3 }, ""},
		{"steady+10%", func(c *jsonTierCell) { c.SteadyCycles = c.SteadyCycles * 110 / 100 }, "steady cycles 482404 -> 530644"},
		{"first+10%", func(c *jsonTierCell) { c.FirstCycles = c.FirstCycles * 110 / 100 }, "first cycles"},
		{"steady+1%", func(c *jsonTierCell) { c.SteadyCycles = c.SteadyCycles * 101 / 100 }, ""},
		{"deopts", func(c *jsonTierCell) { c.Deopts = 0 }, "deopts 1 -> 0"},
		{"promotions", func(c *jsonTierCell) { c.PromotionsT2 = 2 }, "promotions_t2 1 -> 2"},
		{"error", func(c *jsonTierCell) { c.Error = "checksum mismatch" }, "now fails"},
	} {
		d, err := DiffReports(base, policyFixture(t, c.edit), DiffOptions{CyclesTolerancePct: 2})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		regs := strings.Join(d.Regressions, "\n")
		if c.gate == "" && !d.Ok() {
			t.Errorf("%s: gated: %s", c.name, regs)
		}
		if c.gate != "" && !strings.Contains(regs, c.gate) {
			t.Errorf("%s: regressions %q lack %q", c.name, regs, c.gate)
		}
	}
	if _, err := DiffReports(base, diffFixture(t), DiffOptions{}); err == nil {
		t.Error("a -tier baseline diffed against a paper-sweep report")
	}

	degradation := func(c jsonDegradationCell) []byte {
		data, err := json.Marshal(jsonPolicyReport{GeneratedBy: "trapnull benchtab " + degradationKind.flag,
			Matrices: map[string][]any{"windows_degradation": {c}}})
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	gov := jsonDegradationCell{Workload: "TrapStorm", Policy: "governed", SteadyCycles: 125098, Demotions: 1, Recompiles: 1}
	pinned := gov
	pinned.Demotions, pinned.Recompiles, pinned.Pinned = 3, 3, 1
	d, err := DiffReports(degradation(gov), degradation(pinned), DiffOptions{CyclesTolerancePct: 2})
	if err != nil {
		t.Fatal(err)
	}
	if regs := strings.Join(d.Regressions, "\n"); len(d.Regressions) != 3 || !strings.Contains(regs, "pinned 0 -> 1") {
		t.Errorf("demotions, recompiles and pins did not each gate: %s", regs)
	}
}
