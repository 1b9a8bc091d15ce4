package bench

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"trapnull/internal/arch"
	"trapnull/internal/ir"
	"trapnull/internal/jit"
	"trapnull/internal/machine"
	"trapnull/internal/obs"
	"trapnull/internal/workloads"
)

// telemetrySweep runs a quick main sweep with the telemetry plane on and
// returns the rendered timeline and (deterministic) metrics snapshot.
func telemetrySweep(t *testing.T, parallelism int) (string, string) {
	t.Helper()
	tl := obs.NewTimeline()
	reg := obs.NewRegistry()
	if _, err := RunAll(Options{Quick: true, Parallelism: parallelism,
		Timeline: tl, Metrics: reg}); err != nil {
		t.Fatalf("sweep (parallelism %d): %v", parallelism, err)
	}
	return tl.Render(), reg.RenderText(false)
}

// TestTelemetryDeterminism is the central contract of the telemetry plane:
// the rendered timeline and the non-volatile metrics snapshot are semantic
// facts, byte-identical between a serial and a 4-worker sweep and between the
// closure engine and the reference switch interpreter. Logical clocks
// (invocation + step) and registration-order snapshots make this hold; any
// wall time or map iteration leaking into either surface breaks this test.
func TestTelemetryDeterminism(t *testing.T) {
	serialTL, serialMX := telemetrySweep(t, 1)
	parTL, parMX := telemetrySweep(t, 4)
	if serialTL != parTL {
		t.Errorf("timeline differs by worker count:\n--- serial ---\n%s\n--- parallel ---\n%s",
			firstDiffContext(serialTL, parTL), firstDiffContext(parTL, serialTL))
	}
	if serialMX != parMX {
		t.Errorf("metrics snapshot differs by worker count:\n--- serial ---\n%s\n--- parallel ---\n%s", serialMX, parMX)
	}

	// Engine swap: the simulated measurements, and therefore the telemetry
	// built from them, are engine-independent by construction.
	saved := machine.DefaultEngine
	defer func() { machine.DefaultEngine = saved }()
	machine.DefaultEngine = machine.EngineSwitch
	swTL, swMX := telemetrySweep(t, 4)
	if serialTL != swTL {
		t.Errorf("timeline differs by engine:\n--- closure ---\n%s\n--- switch ---\n%s",
			firstDiffContext(serialTL, swTL), firstDiffContext(swTL, serialTL))
	}
	if serialMX != swMX {
		t.Errorf("metrics snapshot differs by engine:\n--- closure ---\n%s\n--- switch ---\n%s", serialMX, swMX)
	}
}

// firstDiffContext trims a big rendering to the neighborhood of its first
// divergence from other, keeping test failures readable.
func firstDiffContext(s, other string) string {
	n := len(s)
	if len(other) < n {
		n = len(other)
	}
	at := n
	for i := 0; i < n; i++ {
		if s[i] != other[i] {
			at = i
			break
		}
	}
	lo, hi := at-200, at+200
	if lo < 0 {
		lo = 0
	}
	if hi > len(s) {
		hi = len(s)
	}
	return s[lo:hi]
}

// TestTieredTelemetryDeterminism extends the byte-identity contract to the
// tiered and degradation sweeps, whose timelines carry the adaptive decisions
// (promotions, deopts, demotions, backoffs) with logical clocks.
func TestTieredTelemetryDeterminism(t *testing.T) {
	run := func(engine machine.Engine) (string, string, string, string) {
		saved := machine.DefaultEngine
		defer func() { machine.DefaultEngine = saved }()
		machine.DefaultEngine = engine
		ttl, treg := obs.NewTimeline(), obs.NewRegistry()
		if _, err := RunTieredAll(TierOptions{Quick: true, Timeline: ttl, Metrics: treg}); err != nil {
			t.Fatalf("tier sweep: %v", err)
		}
		dtl, dreg := obs.NewTimeline(), obs.NewRegistry()
		if _, err := RunDegradationAll(DegradationOptions{Quick: true, Timeline: dtl, Metrics: dreg}); err != nil {
			t.Fatalf("degradation sweep: %v", err)
		}
		return ttl.Render(), treg.RenderText(false), dtl.Render(), dreg.RenderText(false)
	}
	cTT, cTM, cDT, cDM := run(machine.EngineClosure)
	sTT, sTM, sDT, sDM := run(machine.EngineSwitch)
	if cTT != sTT {
		t.Errorf("tier timeline differs by engine near:\n%s\nvs\n%s",
			firstDiffContext(cTT, sTT), firstDiffContext(sTT, cTT))
	}
	if cTM != sTM {
		t.Errorf("tier metrics differ by engine:\n--- closure ---\n%s\n--- switch ---\n%s", cTM, sTM)
	}
	if cDT != sDT {
		t.Errorf("degradation timeline differs by engine near:\n%s\nvs\n%s",
			firstDiffContext(cDT, sDT), firstDiffContext(sDT, cDT))
	}
	if cDM != sDM {
		t.Errorf("degradation metrics differ by engine:\n--- closure ---\n%s\n--- switch ---\n%s", cDM, sDM)
	}
	if !strings.Contains(cTT, "promote-t1") {
		t.Error("tier timeline records no promote-t1 decisions")
	}
	if !strings.Contains(cDT, "demote") {
		t.Error("degradation timeline records no governor demotions")
	}
}

// TestAttributionConservation pins the trap-cost ledger's exactness: for
// every healthy cell of a telemetry-on sweep, the four buckets sum EXACTLY to
// the cell's reported cycles, the remainder is non-negative, and the trap
// bucket is the dispatch cost model applied to the trap count.
func TestAttributionConservation(t *testing.T) {
	tl := obs.NewTimeline()
	rep, err := RunAll(Options{Quick: true, Parallelism: 4, Timeline: tl})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	matrices := []struct {
		name string
		m    *Matrix
	}{
		{"WinJB", rep.WinJB}, {"WinSpec", rep.WinSpec},
		{"AIXJB", rep.AIXJB}, {"AIXSpec", rep.AIXSpec},
	}
	cells := 0
	for _, mx := range matrices {
		for _, cfg := range mx.m.Configs {
			for _, w := range mx.m.Workloads {
				c := mx.m.Cell(cfg.Name, w.Name)
				if c == nil || c.Failed() {
					continue
				}
				cells++
				label := mx.name + " " + cfg.Name + "/" + w.Name
				if c.Attr == nil {
					t.Errorf("%s: telemetry-on cell has no attribution ledger", label)
					continue
				}
				if !c.Attr.Conserves() {
					t.Errorf("%s: ledger does not conserve: total %d != %d = implicit %d + explicit %d + trap %d + guard-free %d",
						label, c.Attr.TotalCycles, c.Attr.Sum(), c.Attr.ImplicitCycles,
						c.Attr.ExplicitCycles, c.Attr.TrapCycles, c.Attr.GuardFree)
				}
				if c.Attr.TotalCycles != c.Cycles {
					t.Errorf("%s: ledger total %d != cell cycles %d", label, c.Attr.TotalCycles, c.Cycles)
				}
				if c.Attr.TrapsTaken != c.Exec.TrapsTaken {
					t.Errorf("%s: ledger traps %d != exec traps %d", label, c.Attr.TrapsTaken, c.Exec.TrapsTaken)
				}
				wantTrap := c.Exec.TrapsTaken * mx.m.Model.TrapDispatchCycles
				if c.Attr.TrapCycles != wantTrap {
					t.Errorf("%s: trap bucket %d != traps %d x dispatch %d", label,
						c.Attr.TrapCycles, c.Exec.TrapsTaken, mx.m.Model.TrapDispatchCycles)
				}
			}
		}
	}
	if cells == 0 {
		t.Fatal("sweep produced no healthy cells")
	}
}

// TestTelemetryOffUnchanged pins the zero-footprint-off contract at the JSON
// surface: a sweep without the telemetry plane must not grow any of the new
// keys, so pre-existing consumers see byte-identical documents.
func TestTelemetryOffUnchanged(t *testing.T) {
	rep, err := RunAll(Options{Quick: true, Parallelism: 4})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	data, err := rep.JSON()
	if err != nil {
		t.Fatalf("JSON: %v", err)
	}
	for _, reject := range []string{`"trap_cost"`, `"injected_faults"`} {
		if strings.Contains(string(data), reject) {
			t.Errorf("telemetry-off JSON contains %s; the field must be omitted when the plane is off", reject)
		}
	}
	// And the telemetry-on sweep does carry the ledger.
	onRep, err := RunAll(Options{Quick: true, Parallelism: 4, Timeline: obs.NewTimeline()})
	if err != nil {
		t.Fatalf("telemetry-on sweep: %v", err)
	}
	onData, err := onRep.JSON()
	if err != nil {
		t.Fatalf("JSON: %v", err)
	}
	if !strings.Contains(string(onData), `"trap_cost"`) {
		t.Error("telemetry-on JSON is missing trap_cost")
	}
}

// telemetryTrial measures one compile+run of the Assignment workload with the
// whole telemetry plane on (attribution + metrics registry + timeline
// render of the decision log) or off.
func telemetryTrial(t *testing.T, observed bool) time.Duration {
	t.Helper()
	w, err := workloads.ByName("Assignment")
	if err != nil {
		t.Fatal(err)
	}
	cfg := jit.ConfigPhase1Phase2()
	model := arch.IA32Win()

	start := time.Now()
	prog, entry := w.Build()
	if _, err := jit.CompileProgram(prog, cfg, model); err != nil {
		t.Fatal(err)
	}
	m := machine.New(model, prog)
	if observed {
		m.EnableAttribution()
	}
	if _, err := m.Call(entry.Fn, 20); err != nil {
		t.Fatal(err)
	}
	if observed {
		tl := obs.NewTimeline()
		tl.Add(w.Name, m.Decisions(), m.CycleAttribution())
		reg := obs.NewRegistry()
		instrs := reg.Counter("engine.instrs", "")
		instrs.Add(m.Stats.Instrs)
		_ = tl.Render()
		_ = reg.RenderText(false)
	}
	return time.Since(start)
}

// TestTelemetryOverheadBudget pins the enabled-overhead acceptance criterion
// for the new plane: attribution, metrics and the timeline together must
// stay within 1.15x of the bare path. Host timing is noisy, so the test takes
// the best of several paired trials, failing only if every attempt exceeds
// the budget.
func TestTelemetryOverheadBudget(t *testing.T) {
	const trials = 5
	const budget = 1.15
	telemetryTrial(t, false) // warm up caches and allocation pools
	best := 0.0
	for i := 0; i < trials; i++ {
		off := telemetryTrial(t, false)
		on := telemetryTrial(t, true)
		ratio := float64(on) / float64(off)
		if i == 0 || ratio < best {
			best = ratio
		}
		if ratio <= budget {
			return
		}
	}
	t.Errorf("telemetry overhead %.3fx exceeds %.2fx budget in all %d trials", best, budget, trials)
}

// observedRun is what one adaptive run shows: every invocation's Outcome
// and error, then the machine's cycles, counters, reports (host compile time
// aside), blacklist and decision log.
type observedRun struct {
	Outcomes    []machine.Outcome
	Errs        []string
	Cycles      int64
	Stats       machine.ExecStats
	Tier        machine.TierReport
	Gov         machine.GovernorReport
	Blacklisted map[string][]int
	Events      []obs.RecEvent
}

// runObserved runs w four times under policy ("tiered-spec" or "governed",
// set up as the quick policy sweeps do), with a caller-attached profile
// when profiled.
func runObserved(t *testing.T, w *workloads.Workload, model *arch.Model, cfg jit.Config, policy string, profiled bool) observedRun {
	t.Helper()
	p, entryM := w.Build()
	if _, err := jit.CompileProgram(p, cfg, model); err != nil {
		t.Fatalf("%s/%s: compile: %v", model.Name, w.Name, err)
	}
	m := machine.New(model, p)
	if profiled {
		m.Profile = obs.NewExecProfile()
	}
	setupPolicy(policy, m, true, func(co jit.CompileOptions) (*ir.Program, error) {
		q, _ := w.Build()
		_, err := jit.CompileProgramWith(q, cfg, model, co)
		return q, err
	})
	if !profiled && m.Profile != nil {
		t.Errorf("%s/%s: %s machine attached a profile nobody asked for", model.Name, w.Name, policy)
	}
	var r observedRun
	for rep := 0; rep < 4; rep++ {
		out, err := m.Call(entryM.Fn, w.TestN)
		r.Outcomes = append(r.Outcomes, out)
		if err != nil {
			r.Errs = append(r.Errs, err.Error())
		}
	}
	r.Cycles, r.Stats = m.Cycles, m.Stats
	r.Tier, r.Gov = m.TierReport(), m.GovernorReport()
	r.Tier.CompileHost, r.Gov.CompileHost = 0, 0
	r.Blacklisted = m.Blacklisted()
	r.Events = m.Decisions()
	return r
}

// TestObservationNeverSteers: attaching an execution profile is observation
// only. Every tiered and degradation workload, on both models, runs under
// tier-2 speculation and under the trap-storm governor once with a
// caller-attached profile and once without one, and the two runs must agree
// on everything the run decides and costs. Neither policy, nor trap-cost
// attribution, attaches a profile of its own.
func TestObservationNeverSteers(t *testing.T) {
	sweeps := []struct {
		model     func() *arch.Model
		spec, gov jit.Config
	}{
		{arch.IA32Win, jit.ConfigPhase1Phase2(), ImplicitConfigWin()},
		{arch.PPCAIX, jit.ConfigAIXSpeculation(), ImplicitConfigAIX()},
	}
	decided := map[string]int{}
	for _, sw := range sweeps {
		model := sw.model()
		for _, w := range append(TieredWorkloads(), DegradationWorkloads()...) {
			for _, pc := range []struct {
				policy string
				cfg    jit.Config
			}{{"tiered-spec", sw.spec}, {"governed", sw.gov}} {
				off := runObserved(t, w, model, pc.cfg, pc.policy, false)
				on := runObserved(t, w, model, pc.cfg, pc.policy, true)
				if !reflect.DeepEqual(off, on) {
					t.Errorf("%s/%s %s: profiling changed the run:\n off %+v\n on  %+v", model.Name, w.Name, pc.policy, off, on)
				}
				for _, ev := range off.Events {
					decided[ev.Kind]++
				}
			}
		}
	}
	for _, kind := range []string{"promote-t2", "deopt", "demote"} {
		if decided[kind] == 0 {
			t.Errorf("no run logged a %s: the comparison saw no such decision", kind)
		}
	}

	m := machine.New(arch.IA32Win(), nil)
	m.EnableAttribution()
	if m.Profile != nil {
		t.Error("EnableAttribution attached a profile nobody asked for")
	}
}

// TestExecProfileTieredAgree pins the block-counting fix under tiered
// execution: a fully tiered machine — promoting through the ladder,
// speculating, deopting — must report exactly the untiered switch
// interpreter's total block entries. Tier promotions swap artifacts
// mid-flight; each generation counts its own entries, so the totals must
// count every block entry exactly once across the swaps.
func TestExecProfileTieredAgree(t *testing.T) {
	model := arch.IA32Win()
	cfg := jit.ConfigPhase1Phase2()
	const reps = 3
	for _, w := range append(workloads.All(), workloads.Extensions()...) {
		// Untiered oracle on the reference interpreter.
		p, entryM := w.Build()
		if _, err := jit.CompileProgram(p, cfg, model); err != nil {
			t.Fatalf("%s: compile: %v", w.Name, err)
		}
		oracle := machine.New(model, p)
		oracle.Engine = machine.EngineSwitch
		oracleProf := obs.NewExecProfile()
		oracle.Profile = oracleProf
		for rep := 0; rep < reps; rep++ {
			oracle.Call(entryM.Fn, w.TestN)
		}

		// Tiered machine with the profile attached before tiering, as the
		// bench harness attaches it.
		compile := tierCompiler(w, cfg, model, jit.NewCache(0))
		prog2, err := compile(nil)
		if err != nil {
			t.Fatalf("%s: conservative compile: %v", w.Name, err)
		}
		em := prog2.MethodByName(entryM.QualifiedName())
		if em == nil || em.Fn == nil {
			t.Fatalf("%s: compiled program lacks entry method", w.Name)
		}
		mach := machine.New(model, prog2)
		tierProf := obs.NewExecProfile()
		mach.Profile = tierProf
		mach.EnableTiering(stormPolicy(), compile)
		for rep := 0; rep < reps; rep++ {
			mach.Call(em.Fn, w.TestN)
		}

		want, got := oracleProf.TotalBlocks(), tierProf.TotalBlocks()
		if got != want {
			t.Errorf("%s: tiered machine entered %d blocks, untiered switch %d", w.Name, got, want)
		}
	}
}
