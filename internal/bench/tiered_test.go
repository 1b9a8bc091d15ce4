package bench

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"trapnull/internal/arch"
	"trapnull/internal/ir"
	"trapnull/internal/jit"
	"trapnull/internal/machine"
	"trapnull/internal/obs"
	"trapnull/internal/rt"
	"trapnull/internal/workloads"
)

// tierCompiler builds the Recompiler glue the tests share with the
// harness: rebuild the pristine workload and compile it under the
// speculation mask through the cache.
func tierCompiler(w *workloads.Workload, cfg jit.Config, model *arch.Model, cache *jit.Cache) machine.Recompiler {
	return func(mask map[string][]int) (*ir.Program, error) {
		p, _ := w.Build()
		entry, _, err := cache.Compile(p, cfg, model, jit.CompileOptions{Spec: mask})
		if err != nil {
			return nil, err
		}
		return entry.Program, nil
	}
}

// newTieredMachine compiles w conservatively and returns a tiered machine
// plus the entry body of the compiled program.
func newTieredMachine(t *testing.T, w *workloads.Workload, cfg jit.Config, model *arch.Model,
	pol machine.TierPolicy, cache *jit.Cache) (*machine.Machine, *ir.Func) {
	t.Helper()
	compile := tierCompiler(w, cfg, model, cache)
	prog, err := compile(nil)
	if err != nil {
		t.Fatalf("%s/%s: conservative compile: %v", cfg.Name, w.Name, err)
	}
	_, entryM := w.Build()
	em := prog.MethodByName(entryM.QualifiedName())
	if em == nil || em.Fn == nil {
		t.Fatalf("%s/%s: compiled program lacks entry method", cfg.Name, w.Name)
	}
	m := machine.New(model, prog)
	m.EnableTiering(pol, compile)
	return m, em.Fn
}

// stormPolicy pushes methods up the ladder almost immediately, so the quick
// problem sizes exercise every rung and every deopt path.
func stormPolicy() machine.TierPolicy {
	return machine.TierPolicy{T1Blocks: 32, T2Blocks: 64, MinCheckExecs: 8}
}

// TestTieredDifferentialAllWorkloads is the tiering half of the engine
// equivalence proof: a fully tiered machine — promoting through the ladder
// and speculating as aggressively as the policy allows — must produce the
// untiered switch interpreter's exact Outcome and error on every invocation,
// for every workload under every configuration on both arch models. The set
// includes the extension workloads where the profile lies and nulls arrive
// late, so the deopt path is inside the differential contract, not beside it.
func TestTieredDifferentialAllWorkloads(t *testing.T) {
	sweeps := []struct {
		name    string
		model   func() *arch.Model
		configs []jit.Config
		work    []*workloads.Workload
	}{
		{"win", arch.IA32Win, jit.WindowsConfigs(), append(workloads.All(), workloads.Extensions()...)},
		{"aix", arch.PPCAIX, jit.AIXConfigs(), append(workloads.All(), workloads.Extensions()...)},
	}
	const reps = 3

	for _, sw := range sweeps {
		for _, cfg := range sw.configs {
			for _, w := range sw.work {
				id := sw.name + "/" + cfg.Name + "/" + w.Name
				model := sw.model()

				// Untiered oracle: fresh switch-interpreter machine.
				p, entryM := w.Build()
				if _, err := jit.CompileProgram(p, cfg, model); err != nil {
					t.Fatalf("%s: compile: %v", id, err)
				}
				oracle := machine.New(model, p)
				oracle.Engine = machine.EngineSwitch
				wantOut, wantErr := oracle.Call(entryM.Fn, w.TestN)

				mach, fn := newTieredMachine(t, w, cfg, model, stormPolicy(), jit.NewCache(0))
				for rep := 0; rep < reps; rep++ {
					out, err := mach.Call(fn, w.TestN)
					if out != wantOut {
						t.Errorf("%s rep %d: outcome diverges: tiered=%+v switch=%+v", id, rep, out, wantOut)
					}
					if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
						t.Errorf("%s rep %d: error diverges: tiered=%v switch=%v", id, rep, err, wantErr)
					}
				}
			}
		}
	}
}

// TestTieredStepLimit runs tiered machines into their step limit. With a
// promotion-only policy a method moves from the interpreter to the closure
// engine mid-invocation, and a closure-engine stretch the limit could fire
// in hands the invocation back to the reference interpreter, so the limit
// lands on either rung and across both hand-offs. At 16 limits spread over
// each workload's untiered step count, on both arch models, the tiered run
// must match an untiered switch-interpreter machine under the same limit on
// Outcome, error text, ExecStats and Cycles.
func TestTieredStepLimit(t *testing.T) {
	sweeps := []struct {
		name  string
		model func() *arch.Model
		cfg   jit.Config
	}{
		{"win", arch.IA32Win, jit.ConfigPhase1Phase2()},
		{"aix", arch.PPCAIX, jit.ConfigAIXSpeculation()},
	}
	const limits = 16
	pol := machine.TierPolicy{T1Blocks: 32}
	promotedAtLimit := 0
	for _, sw := range sweeps {
		cache := jit.NewCache(0)
		for _, w := range append(workloads.All(), workloads.Extensions()...) {
			model := sw.model()
			prog, err := tierCompiler(w, sw.cfg, model, cache)(nil)
			if err != nil {
				t.Fatalf("%s/%s: compile: %v", sw.name, w.Name, err)
			}
			_, entryM := w.Build()
			fn := prog.MethodByName(entryM.QualifiedName()).Fn
			oracle := func(limit int64) *machine.Machine {
				m := machine.New(model, prog)
				m.Engine = machine.EngineSwitch
				if limit > 0 {
					m.MaxSteps = limit
				}
				return m
			}
			full := oracle(0)
			if _, err := full.Call(fn, w.TestN); err != nil {
				t.Fatalf("%s/%s: untiered run: %v", sw.name, w.Name, err)
			}
			for k := int64(1); k <= limits; k++ {
				limit := max(1, full.Steps()*k/limits)
				id := fmt.Sprintf("%s/%s limit %d of %d", sw.name, w.Name, limit, full.Steps())
				ref := oracle(limit)
				wantOut, wantErr := ref.Call(fn, w.TestN)
				mach, tfn := newTieredMachine(t, w, sw.cfg, model, pol, cache)
				mach.MaxSteps = limit
				out, err := mach.Call(tfn, w.TestN)
				if out != wantOut || fmt.Sprint(err) != fmt.Sprint(wantErr) {
					t.Errorf("%s: tiered out=%+v err=%v, switch out=%+v err=%v", id, out, err, wantOut, wantErr)
				}
				if mach.Stats != ref.Stats || mach.Cycles != ref.Cycles {
					t.Errorf("%s: tiered stats=%+v cycles=%d, switch stats=%+v cycles=%d",
						id, mach.Stats, mach.Cycles, ref.Stats, ref.Cycles)
				}
				if errors.Is(err, machine.ErrStepLimit) && mach.TierReport().OSREntries > 0 {
					promotedAtLimit++
				}
			}
		}
	}
	if promotedAtLimit == 0 {
		t.Fatal("no run hit its step limit after a promotion: the closure rung's hand-off went untested")
	}
}

// TestTieredSteadyStateBeatsBestStatic pins the headline speedup: on hot
// null-free workloads the speculative tier never does worse than its own
// configuration's untiered run, and on two or more of them its steady state
// strictly beats the best static configuration of the model — speculation
// removes checks the static pipeline provably cannot (profile facts are not
// proofs), so the strict wins are exactly where surviving explicit checks
// were hot.
func TestTieredSteadyStateBeatsBestStatic(t *testing.T) {
	nullFree := []*workloads.Workload{
		workloads.NumericSort(),
		workloads.Assignment(),
		workloads.Compress(),
		workloads.BigOffsetWalk(),
	}
	type sweep struct {
		name    string
		model   *arch.Model
		cfg     jit.Config
		configs []jit.Config
	}
	sweeps := []sweep{
		{"win", arch.IA32Win(), jit.ConfigPhase1Phase2(), jit.WindowsConfigs()},
		{"aix", arch.PPCAIX(), jit.ConfigAIXSpeculation(), jit.AIXConfigs()},
	}

	strictWins := 0
	for _, sw := range sweeps {
		m, err := RunTiered(sw.model, sw.cfg, nullFree, TierOptions{Quick: true})
		if err != nil {
			t.Fatalf("%s: tiered sweep: %v", sw.name, err)
		}
		for _, w := range nullFree {
			// Best static: minimum single-invocation cycles over every
			// configuration of this model, untiered.
			best := int64(-1)
			for _, cfg := range sw.configs {
				p, entryM := w.Build()
				if _, err := jit.CompileProgram(p, cfg, sw.model); err != nil {
					t.Fatalf("%s/%s/%s: compile: %v", sw.name, cfg.Name, w.Name, err)
				}
				mach := machine.New(sw.model, p)
				out, err := mach.Call(entryM.Fn, w.TestN)
				if err != nil || out.Value != w.Ref(w.TestN) {
					t.Fatalf("%s/%s/%s: run failed: %+v %v", sw.name, cfg.Name, w.Name, out, err)
				}
				if best < 0 || mach.Cycles < best {
					best = mach.Cycles
				}
			}
			c := m.Cell("tiered-spec", w.Name)
			if c == nil || c.Failed() {
				t.Fatalf("%s/%s: tiered-spec cell missing or failed: %+v", sw.name, w.Name, c)
			}
			// Against its own configuration the speculative tier can only
			// remove cost: never worse than the untiered baseline.
			base := m.Cell("interp", w.Name)
			if base == nil || base.Failed() {
				t.Fatalf("%s/%s: interp cell missing or failed", sw.name, w.Name)
			}
			if c.SteadyCycles > base.SteadyCycles {
				t.Errorf("%s/%s: tiered-spec steady state %d cycles worse than its own untiered config %d",
					sw.name, w.Name, c.SteadyCycles, base.SteadyCycles)
			}
			if c.SteadyCycles < best {
				strictWins++
			}
		}
	}
	if strictWins < 2 {
		t.Errorf("tiered-spec steady state strictly beats the best static config on only %d null-free workloads, want >= 2", strictWins)
	}
}

// TestTieredDeoptStorm is the convergence proof (satellite 3): LateNullStorm
// speculates both far-offset checks off a lying profile, meets the late
// nulls, and must deoptimize into conservative code that terminates with the
// untiered switch engine's bit-identical Outcome on every invocation — and
// once converged, never deoptimizes again: every wrong speculation is
// blacklisted exactly once, and nulls observed by the conservative artifact
// keep the remaining checks out of future candidate sets.
func TestTieredDeoptStorm(t *testing.T) {
	w := workloads.LateNullStorm()
	model := arch.IA32Win()
	cfg := jit.ConfigPhase1Phase2()
	n := w.TestN

	p, entryM := w.Build()
	if _, err := jit.CompileProgram(p, cfg, model); err != nil {
		t.Fatal(err)
	}
	oracle := machine.New(model, p)
	oracle.Engine = machine.EngineSwitch
	wantOut, wantErr := oracle.Call(entryM.Fn, n)
	if wantErr != nil {
		t.Fatalf("oracle: %v", wantErr)
	}

	mach, fn := newTieredMachine(t, w, cfg, model, stormPolicy(), jit.NewCache(0))
	const reps = 8
	var deoptsAfter [reps]int
	for rep := 0; rep < reps; rep++ {
		out, err := mach.Call(fn, n)
		if err != nil {
			t.Fatalf("rep %d: %v", rep, err)
		}
		if out != wantOut {
			t.Errorf("rep %d: outcome diverges: tiered=%+v switch=%+v", rep, out, wantOut)
		}
		deoptsAfter[rep] = mach.TierReport().Deopts
	}

	rep := mach.TierReport()
	if rep.Deopts == 0 {
		t.Fatalf("speculation never deoptimized; events: %+v", rep.Events)
	}
	// Each check can be wrong at most once: the guard that fires is
	// blacklisted, and a check whose null was seen by conservative code is
	// never a candidate again. Two checks bound the storm at two deopts.
	if rep.Deopts > 2 {
		t.Errorf("deopt storm did not converge: %d deopts for 2 checks", rep.Deopts)
	}
	if deoptsAfter[reps-1] != deoptsAfter[2] {
		t.Errorf("deopts still accumulating after convergence: %v", deoptsAfter)
	}
	bl := mach.Blacklisted()
	if len(bl["LateNullStorm.main"]) == 0 {
		t.Errorf("no blacklisted checks after deopt: %+v", bl)
	}
}

// TestTieredResetPreparedInvalidation is the satellite-2 regression: after
// ResetPrepared — the triage bisection replay hook — a previously speculated
// method must NOT execute its stale speculative closure. The first post-reset
// invocation runs at conservative cost (the ladder restarts at tier 0), and
// the controller's speculative state is gone.
func TestTieredResetPreparedInvalidation(t *testing.T) {
	w := workloads.BigOffsetWalk()
	model := arch.IA32Win()
	cfg := jit.ConfigPhase1Phase2()
	n := w.TestN

	// T2Blocks is sized so the speculative recompile needs a second
	// invocation's block entries: one invocation alone can never re-reach
	// tier 2, making "first post-reset invocation is conservative" a sharp
	// assertion rather than a race with re-promotion.
	pol := machine.TierPolicy{T1Blocks: 32, T2Blocks: 200, MinCheckExecs: 8}
	mach, fn := newTieredMachine(t, w, cfg, model, pol, jit.NewCache(0))

	want := w.Ref(n)
	var conservative, steady int64
	for rep := 0; rep < 4; rep++ {
		before := mach.Cycles
		out, err := mach.Call(fn, n)
		if err != nil || out.Value != want {
			t.Fatalf("rep %d: %+v %v", rep, out, err)
		}
		d := mach.Cycles - before
		if rep == 0 {
			conservative = d // tier 0/1 only: same simulated cost by engine equivalence
		}
		steady = d
	}
	if mach.TierReport().SpecLive == 0 {
		t.Fatalf("method never reached tier 2; events: %+v", mach.TierReport().Events)
	}
	if steady >= conservative {
		t.Fatalf("speculation did not reduce steady-state cycles: %d vs %d", steady, conservative)
	}

	mach.ResetPrepared()
	if got := mach.TierReport().SpecLive; got != 0 {
		t.Errorf("SpecLive = %d after ResetPrepared, want 0", got)
	}
	if bl := mach.Blacklisted(); len(bl) != 0 {
		t.Errorf("blacklist survived ResetPrepared: %+v", bl)
	}
	before := mach.Cycles
	out, err := mach.Call(fn, n)
	if err != nil || out.Value != want {
		t.Fatalf("post-reset call: %+v %v", out, err)
	}
	if d := mach.Cycles - before; d != conservative {
		t.Errorf("first post-reset invocation cost %d cycles, want conservative %d (stale speculative closure executed?)", d, conservative)
	}
}

// TestTieredCacheKeying checks the cache keys at the machine level: one
// tiered run through a shared cache compiles the conservative artifact
// (miss) and the speculative artifact (miss, distinct key); an identical
// replay on a second machine sharing the cache hits on everything.
// Speculative and conservative artifacts therefore can never collide, and
// replays are free.
func TestTieredCacheKeying(t *testing.T) {
	w := workloads.LateNullStorm()
	model := arch.IA32Win()
	cfg := jit.ConfigPhase1Phase2()
	cache := jit.NewCache(0)
	n := w.TestN
	want := w.Ref(n)

	run := func() {
		mach, fn := newTieredMachine(t, w, cfg, model, stormPolicy(), cache)
		for rep := 0; rep < 4; rep++ {
			out, err := mach.Call(fn, n)
			if err != nil || out.Value != want {
				t.Fatalf("rep %d: %+v %v", rep, out, err)
			}
		}
		if mach.TierReport().Deopts == 0 {
			t.Fatal("run never deoptimized; the keying scenario needs a speculative artifact")
		}
	}

	run()
	first := cache.Stats()
	if first.Misses < 2 {
		t.Fatalf("conservative and speculative compiles must be distinct misses, got %+v", first)
	}

	run()
	second := cache.Stats()
	if second.Misses != first.Misses {
		t.Errorf("replay recompiled: misses %d -> %d (keys unstable across identical runs)", first.Misses, second.Misses)
	}
	if second.Hits != first.Hits+first.Lookups {
		t.Errorf("replay should hit on every lookup: %+v then %+v", first, second)
	}
}

// TestTieredRecompilerSeesOnlyNonEmptySets: a machine calls its policy
// Recompiler only to build a new generation, so every call carries the
// speculation or demote set that generation differs by. A deopt falls back
// to the conservative artifact the machine still holds and compiles
// nothing. The cells run as the policy sweeps set them up (setupPolicy,
// quick thresholds, default invocation counts): tiered-spec over the tiered
// workloads and governed over the storm family, on both models, with
// LateNullStorm required to deopt.
func TestTieredRecompilerSeesOnlyNonEmptySets(t *testing.T) {
	for _, pk := range []struct {
		kind   *policyKind
		policy string
	}{{tierKind, "tiered-spec"}, {degradationKind, "governed"}} {
		calls := 0
		for _, model := range []*arch.Model{arch.IA32Win(), arch.PPCAIX()} {
			cfg := pk.kind.win()
			if model.Name == arch.PPCAIX().Name {
				cfg = pk.kind.aix()
			}
			for _, w := range pk.kind.workloads() {
				id := model.Name + "/" + pk.policy + "/" + w.Name
				s := cellSpec{model: model, cfg: cfg, w: w, policy: pk.policy, reps: pk.kind.reps}
				p, entryM := w.Build()
				if _, err := jit.CompileProgram(p, cfg, model); err != nil {
					t.Fatalf("%s: compile: %v", id, err)
				}
				mach := machine.New(model, p)
				setupPolicy(s.policy, mach, true, func(co jit.CompileOptions) (*ir.Program, error) {
					calls++
					if len(co.Spec) == 0 && len(co.Demote) == 0 {
						t.Errorf("%s: recompile %d carries an empty set", id, calls)
					}
					return s.recompile(co)
				})
				want := w.Ref(w.TestN)
				for rep := 0; rep < s.reps; rep++ {
					out, err := mach.Call(entryM.Fn, w.TestN)
					if err != nil || out.Exc != rt.ExcNone || out.Value != want {
						t.Fatalf("%s rep %d: %+v %v, want checksum %d", id, rep, out, err, want)
					}
				}
				if w.Name == "LateNullStorm" && mach.TierReport().Deopts == 0 {
					t.Errorf("%s: never deoptimized; the check needs a fired guard", id)
				}
			}
		}
		if calls == 0 {
			t.Errorf("%s: no cell recompiled; the check saw nothing", pk.policy)
		}
	}
}

// TestTierHookOverheadBudget pins satellite 1: with tiering enabled but
// promotion thresholds set out of reach, the machine pays one tier-state
// fetch per call and one countdown decrement per block entry over the
// untiered baseline. Host timing is noisy, so the test takes the best
// of several paired trials and fails only if every attempt exceeds the
// budget.
func TestTierHookOverheadBudget(t *testing.T) {
	const trials = 5
	const budget = 1.20
	tierTrial(t, false) // warm up
	best := 0.0
	for i := 0; i < trials; i++ {
		off := tierTrial(t, false)
		on := tierTrial(t, true)
		ratio := float64(on) / float64(off)
		if i == 0 || ratio < best {
			best = ratio
		}
		if ratio <= budget {
			return
		}
	}
	t.Errorf("tier hook overhead %.3fx exceeds %.2fx budget in all %d trials", best, budget, trials)
}

func tierTrial(t testing.TB, tiered bool) time.Duration {
	w, err := workloads.ByName("Assignment")
	if err != nil {
		t.Fatal(err)
	}
	model := arch.IA32Win()
	cfg := jit.ConfigPhase1Phase2()
	prog, entry := w.Build()
	if _, err := jit.CompileProgram(prog, cfg, model); err != nil {
		t.Fatal(err)
	}
	m := machine.New(model, prog)
	m.Engine = machine.EngineSwitch
	if tiered {
		// Thresholds no run can reach: the hook is live on every block
		// entry but never promotes, isolating its cost. Neither side
		// carries a profile, so the trial measures the tier hook alone.
		m.EnableTiering(machine.TierPolicy{T1Blocks: 1 << 40}, nil)
	}
	start := time.Now()
	if _, err := m.Call(entry.Fn, 30); err != nil {
		t.Fatal(err)
	}
	return time.Since(start)
}

// BenchmarkTierHookOff and BenchmarkTierHookOn make the satellite-1 delta
// measurable with `go test -bench TierHook -benchtime 20x ./internal/bench`.
func BenchmarkTierHookOff(b *testing.B) { benchTierHook(b, false) }
func BenchmarkTierHookOn(b *testing.B)  { benchTierHook(b, true) }

func benchTierHook(b *testing.B, tiered bool) {
	for i := 0; i < b.N; i++ {
		tierTrial(b, tiered)
	}
}

// TestLateNullStormDeoptStep pins the quick tier sweep's LateNullStorm deopt
// at the reference step clock: the speculation guard fires as the 10816th
// instruction of the first invocation, whatever the closure engine had
// pre-charged for the rest of the guard's block.
func TestLateNullStormDeoptStep(t *testing.T) {
	tl := obs.NewTimeline()
	if _, err := RunTieredAll(TierOptions{Quick: true, Timeline: tl}); err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, c := range tl.Cells() {
		if !strings.Contains(c.Name, "LateNullStorm") {
			continue
		}
		for _, ev := range c.Events {
			if ev.Kind != "deopt" {
				continue
			}
			seen++
			if ev.Invocation == 1 && ev.Step != 10816 {
				t.Errorf("%s: first deopt logged at step %d, want 10816", c.Name, ev.Step)
			}
		}
	}
	if seen == 0 {
		t.Fatal("no LateNullStorm deopt in the quick tier sweep")
	}
}
