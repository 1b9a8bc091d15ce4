package machine

import (
	"fmt"
	"sort"
	"time"

	"trapnull/internal/ir"
	"trapnull/internal/obs"
)

// Tiered adaptive execution.
//
// A tiered machine starts every method in the switch interpreter (tier 0),
// promotes it to the closure-compiled engine once its block-entry profile
// crosses a threshold (tier 1), and — when the per-check profile shows hot
// checks that never saw a null — recompiles it speculatively (tier 2):
// those checks become zero-cost speculation guards (ir.Instr.SpecGuard)
// beyond what phase 1/phase 2 could prove. A guard that actually meets a
// null fires as a hardware trap, raises the exact NullPointerException the
// explicit check would have raised at the same program point, and triggers
// deoptimization: the speculation is blacklisted, the method falls back to
// the conservative artifact (observationally identical to tier 0 by the
// engine-equivalence invariant), the faulting invocation transfers to that
// artifact at the raise dispatch, and a conservative recompile is pushed
// through the compile cache. Because the guard sits at the original check's
// program point — before any side effect the check was protecting — no heap
// or local state needs rolling back, and the final Outcome is identical to
// the untiered engines by construction, even when the profile lies.
//
// Promotion thresholds count block entries, the same facts
// obs.ExecProfile records; each method keeps the threshold in decremented
// ("budget") form so the hot path pays one nil test per block entry when
// tiering is off and one extra decrement-and-test when it is on. Speculation
// candidates come from the per-check counters the profile accumulates
// (obs.CheckCounts), which both engines maintain through pointers bound at
// prepare/closure-compile time.
//
// Tier artifacts are whole-program compiles: the Recompiler callback
// rebuilds and recompiles the source program under a speculation mask, so
// the machine package never imports the jit package. Speculation is a
// post-pipeline flag flip on a deterministic recompile, which keeps every
// artifact block-for-block aligned with the conservative one — that
// alignment is what makes on-stack replacement (tier 0→1 and 1→2 hand-offs
// mid-invocation) and deopt transfers exact.

// TierPolicy sets the promotion thresholds.
type TierPolicy struct {
	// T1Blocks is how many block entries a method accumulates in the
	// interpreter before promoting to the closure engine. ≤ 0 disables
	// promotion entirely (the method stays interpreted).
	T1Blocks int64
	// T2Blocks is how many further block entries a tier-1 method accumulates
	// before a speculative recompile is attempted. ≤ 0 disables tier 2.
	T2Blocks int64
	// MinCheckExecs is the minimum observed executions before a
	// zero-null check may be speculated; below it the profile is too thin to
	// bet on and the promotion attempt is retried after another T2Blocks.
	MinCheckExecs int64
	// SpecRecompileBudget bounds tier-2 speculative recompiles per method
	// (0 → DefaultSpecRecompileBudget). Each deopt re-arms the promotion
	// countdown with exponential backoff (T2Blocks doubling per attempt);
	// once the budget is spent the method parks at tierClosureFinal and the
	// exhaustion is surfaced in TierReport.BudgetExhausted. Without the
	// bound a pathological profile — checks that alternate between long
	// null-free stretches and bursts — can recompile indefinitely.
	SpecRecompileBudget int
}

// DefaultSpecRecompileBudget is the per-method tier-2 recompile bound
// applied when TierPolicy.SpecRecompileBudget is zero.
const DefaultSpecRecompileBudget = 8

// DefaultTierPolicy returns the thresholds the bench harness uses.
func DefaultTierPolicy() TierPolicy {
	return TierPolicy{T1Blocks: 2048, T2Blocks: 8192, MinCheckExecs: 64,
		SpecRecompileBudget: DefaultSpecRecompileBudget}
}

// Recompiler compiles the machine's source program under a set of per-check
// overrides — method qualified name → ordinals — and returns the compiled
// program; nil or empty is the unmodified compilation. The tier controller
// passes speculation masks (ordinals in ir.Func.NullChecks order), the
// governor demote sets (trap-site ordinals forced back to explicit checks).
// The bench harness supplies a closure over the workload builder and
// jit.Cache.Compile, whose key covers both sets, so every artifact
// generation has its own cache entry.
type Recompiler func(set map[string][]int) (*ir.Program, error)

// tierLevel is a method's current rung.
type tierLevel uint8

const (
	tierInterp       tierLevel = iota // switch interpreter, counting toward tier 1
	tierClosure                       // closure engine, counting toward tier 2
	tierClosureFinal                  // closure engine, no further promotion
	tierSpec                          // speculative closure artifact
)

// methodTier is one method's tier state.
type methodTier struct {
	name   string
	tier   tierLevel
	budget int64    // block entries remaining until the next promotion attempt
	fn0    *ir.Func // conservative artifact (the program's Method.Fn)
	fn2    *ir.Func // speculative artifact body; nil below tier 2
	cf2    *cFunc
	spec   []int // ordinals speculated in fn2
	// specAttempts counts tier-2 speculative recompiles; capped by
	// TierPolicy.SpecRecompileBudget with exponential deopt backoff.
	specAttempts int
	// exhausted marks the method parked by a spent recompile budget.
	exhausted bool
}

// TierEvent is one promotion/deoptimization, in occurrence order.
type TierEvent struct {
	Method string `json:"method"`
	Kind   string `json:"kind"`  // "promote-t1", "promote-t2", "deopt"
	Check  int    `json:"check"` // fired guard's check ordinal; -1 otherwise
	Specs  int    `json:"specs"` // checks speculated by a promote-t2
}

// TierReport is the controller's summary for the bench tables.
type TierReport struct {
	Events      []TierEvent
	Deopts      int
	SpecLive    int // methods currently at tier 2
	CompileHost time.Duration
	// OSREntries counts mid-invocation hand-offs into a freshly promoted
	// artifact (on-stack replacement at tier 0→1 and 1→2).
	OSREntries int
	// BudgetExhausted lists (sorted) the methods whose tier-2 recompile
	// budget ran out; they are parked at the closure tier for good.
	BudgetExhausted []string
}

// tierController holds the machine's tier ladder. It is created by
// EnableTiering and owned by one Machine (not safe for concurrent use,
// matching the Machine itself).
type tierController struct {
	m       *Machine
	policy  TierPolicy
	compile Recompiler

	byFn  map[*ir.Func]*methodTier // every known artifact body → its method
	order []*methodTier            // method order: deterministic mask building
	black map[string]map[int]bool  // blacklisted (method, check ordinal)

	events      []TierEvent
	deopts      int
	osrEntries  int
	compileHost time.Duration

	// gov, when non-nil, is the trap-storm governor (EnableGovernor):
	// per-site trap-rate monitoring with implicit→explicit demotion. See
	// governor.go.
	gov *governor
}

// EnableTiering switches the machine to tiered adaptive execution. compile
// supplies speculative recompiles; nil disables tier 2 regardless of policy.
// Tiering needs the execution profile, so one is attached if absent.
func (m *Machine) EnableTiering(policy TierPolicy, compile Recompiler) {
	if m.Profile == nil {
		m.Profile = obs.NewExecProfile()
	}
	t := &tierController{m: m, policy: policy, compile: compile}
	t.rebuild()
	m.tier = t
}

// TierReport returns the controller's event log and totals; zero when the
// machine is untiered.
func (m *Machine) TierReport() TierReport {
	if m.tier == nil {
		return TierReport{}
	}
	t := m.tier
	r := TierReport{Events: t.events, Deopts: t.deopts, OSREntries: t.osrEntries, CompileHost: t.compileHost}
	for _, mt := range t.order {
		if mt.tier == tierSpec {
			r.SpecLive++
		}
		if mt.exhausted {
			r.BudgetExhausted = append(r.BudgetExhausted, mt.name)
		}
	}
	sort.Strings(r.BudgetExhausted)
	return r
}

// rebuild initializes the per-method table from the machine's current
// program. Everything restarts at tier 0 with a clean blacklist.
func (t *tierController) rebuild() {
	t.byFn = make(map[*ir.Func]*methodTier)
	t.order = t.order[:0]
	t.black = make(map[string]map[int]bool)
	if t.m.Prog == nil {
		return
	}
	startBudget := t.policy.T1Blocks
	if startBudget <= 0 {
		startBudget = 1 << 62 // promotion disabled: the countdown never fires
	}
	for _, mth := range t.m.Prog.Methods {
		if mth.Fn == nil {
			continue
		}
		mt := &methodTier{name: mth.QualifiedName(), tier: tierInterp, budget: startBudget, fn0: mth.Fn}
		t.byFn[mth.Fn] = mt
		t.order = append(t.order, mt)
	}
}

// reset invalidates all tier state. ResetPrepared calls it so triage
// bisection replays — which swap Method.Fn values between Calls — can never
// dispatch through a stale speculative closure of the previous generation.
// Governor site bindings are dropped with the tier table (they hold
// methodTier pointers); the demote set and policy state survive, matching
// the monotone-demotion contract.
func (t *tierController) reset() {
	t.rebuild()
	if t.gov != nil {
		t.gov.refs = make(map[*ir.Instr]*govSite)
	}
}

// stateOf returns fn's tier state, or nil for bodies outside the program
// (bare test functions). One map lookup per call; never on the block path.
func (t *tierController) stateOf(fn *ir.Func) *methodTier { return t.byFn[fn] }

// specBudget returns the effective per-method tier-2 recompile bound.
func (t *tierController) specBudget() int {
	if t.policy.SpecRecompileBudget > 0 {
		return t.policy.SpecRecompileBudget
	}
	return DefaultSpecRecompileBudget
}

// tierInvoke dispatches one call through the tier table. The tier chooses
// the artifact and engine; all rungs are observationally identical, so this
// only moves cycles between "explicit check" and "trap" flavors exactly as
// the compiled artifacts dictate.
func (m *Machine) tierInvoke(fn *ir.Func, args []int64, depth int) (Outcome, error) {
	mt := m.tier.byFn[fn]
	if mt == nil {
		return m.execClosure(fn, args, depth)
	}
	switch mt.tier {
	case tierInterp:
		return m.exec(mt.fn0, args, depth)
	case tierSpec:
		return m.execCf(mt.fn2, mt.cf2, args, depth)
	default: // tierClosure, tierClosureFinal
		return m.execCf(mt.fn0, m.compiled(mt.fn0), args, depth)
	}
}

// promoteT1 promotes an interpreted method to the closure engine, returning
// the compiled artifact for the caller's on-stack replacement (nil when
// promotion is disabled). The closure-compile cost counts toward
// compile-time-to-peak.
func (t *tierController) promoteT1(mt *methodTier) *cFunc {
	if t.policy.T1Blocks <= 0 {
		return nil
	}
	start := time.Now()
	cf := t.m.compiled(mt.fn0)
	t.compileHost += time.Since(start)
	if t.policy.T2Blocks > 0 && t.compile != nil {
		mt.tier = tierClosure
		mt.budget = t.policy.T2Blocks
	} else {
		mt.tier = tierClosureFinal
	}
	t.osrEntries++
	t.events = append(t.events, TierEvent{Method: mt.name, Kind: "promote-t1", Check: -1})
	t.m.Recorder.Record(t.m.steps, "tier", "promote-t1", mt.name, "osr into closure artifact")
	return cf
}

// candidates returns the ordinals of mt's speculable checks: executed at
// least MinCheckExecs times, zero nulls observed, not blacklisted. thin
// reports whether some check is still below the execution floor (the
// promotion attempt should be retried once more data accumulates).
func (t *tierController) candidates(mt *methodTier) (ords []int, thin bool) {
	checks := mt.fn0.NullChecks()
	bl := t.black[mt.name]
	for ord, in := range checks {
		if bl[ord] {
			continue
		}
		c := t.m.Profile.PeekCheck(in)
		if c == nil || c.Execs < t.policy.MinCheckExecs {
			thin = true
			continue
		}
		if c.Nulls == 0 {
			ords = append(ords, ord)
		}
	}
	return ords, thin
}

// specMask assembles the whole-program speculation mask: every method
// currently at tier 2 keeps its ordinals, plus the new candidate set.
func (t *tierController) specMask(promoting *methodTier, cand []int) map[string][]int {
	mask := make(map[string][]int)
	for _, mt := range t.order {
		if mt.tier == tierSpec && len(mt.spec) > 0 {
			mask[mt.name] = mt.spec
		}
	}
	if len(cand) > 0 {
		mask[promoting.name] = cand
	}
	return mask
}

// promoteT2 attempts the speculative recompile of a tier-1 method. On
// success it returns the speculative body and closure artifact for the
// caller's mid-invocation hand-off. On failure it either re-arms the
// countdown (profile still too thin) or parks the method at
// tierClosureFinal (nothing left to speculate, or the recompile failed).
func (t *tierController) promoteT2(mt *methodTier) (*ir.Func, *cFunc) {
	if mt.specAttempts >= t.specBudget() {
		// Recompile budget spent: park for good and surface the exhaustion.
		mt.tier = tierClosureFinal
		if !mt.exhausted {
			mt.exhausted = true
			t.events = append(t.events, TierEvent{Method: mt.name, Kind: "spec-budget-exhausted", Check: -1})
			t.m.Recorder.Record(t.m.steps, "tier", "spec-budget-exhausted", mt.name,
				fmt.Sprintf("parked after %d recompiles", mt.specAttempts))
		}
		return nil, nil
	}
	cand, thin := t.candidates(mt)
	if len(cand) == 0 {
		if thin {
			mt.budget = t.policy.T2Blocks
		} else {
			mt.tier = tierClosureFinal
		}
		return nil, nil
	}
	mt.specAttempts++
	start := time.Now()
	prog2, err := t.compile(t.specMask(mt, cand))
	t.compileHost += time.Since(start)
	if err != nil {
		mt.tier = tierClosureFinal
		return nil, nil
	}
	fn2 := t.adopt(prog2, mt)
	if fn2 == nil {
		mt.tier = tierClosureFinal
		return nil, nil
	}
	start = time.Now()
	cf2 := t.m.compiled(fn2)
	t.compileHost += time.Since(start)
	mt.tier = tierSpec
	mt.fn2, mt.cf2 = fn2, cf2
	mt.spec = cand
	t.osrEntries++
	t.events = append(t.events, TierEvent{Method: mt.name, Kind: "promote-t2", Check: -1, Specs: len(cand)})
	t.m.Recorder.Record(t.m.steps, "tier", "promote-t2", mt.name,
		fmt.Sprintf("%d checks speculated", len(cand)))
	return fn2, cf2
}

// adopt registers a freshly compiled program generation: every method body
// maps into byFn (calls inside the new artifact dispatch through the tier
// table like any other), and each body's checks alias the conservative
// artifact's profile counters — compilation is deterministic, so ordinals
// align — letting conservative and speculative runs accumulate one profile.
// Returns the promoting method's new body.
func (t *tierController) adopt(prog2 *ir.Program, promoting *methodTier) *ir.Func {
	byName := make(map[string]*methodTier, len(t.order))
	for _, mt := range t.order {
		byName[mt.name] = mt
	}
	var promoted *ir.Func
	for _, mth := range prog2.Methods {
		if mth.Fn == nil {
			continue
		}
		mt := byName[mth.QualifiedName()]
		if mt == nil {
			continue
		}
		t.byFn[mth.Fn] = mt
		// Block-aligned generations share one block-entry counter box, so
		// the execution profile survives the artifact swap instead of
		// fragmenting across generations.
		t.m.Profile.BindCounters(mth.Fn, mt.fn0)
		checks0 := mt.fn0.NullChecks()
		for ord, in2 := range mth.Fn.NullChecks() {
			if ord < len(checks0) {
				t.m.Profile.BindCheck(in2, t.m.Profile.CheckCounter(checks0[ord]))
			}
		}
		if mt == promoting {
			promoted = mth.Fn
		}
	}
	return promoted
}

// deopted handles a fired speculation guard: blacklist the (method, check)
// pair, demote the method to the conservative tier-1 artifact, push a
// conservative recompile through the compile cache, and transfer the
// faulting invocation (fr non-nil when the closure engine trapped) to the
// conservative artifact at the raise dispatch. Re-promotion goes back
// through the countdown with the shrunken mask — a distinct cache key, so
// the recompile is a miss the first time and a hit on replay.
func (t *tierController) deopted(fn *ir.Func, in *ir.Instr, fr *frame) {
	mt := t.byFn[fn]
	if mt == nil {
		return
	}
	ord := int(in.SpecGuard) - 1
	bl := t.black[mt.name]
	if bl == nil {
		bl = make(map[int]bool)
		t.black[mt.name] = bl
	}
	if !bl[ord] {
		bl[ord] = true
	}
	t.deopts++
	mt.tier = tierClosure
	// Exponential backoff: each failed speculation doubles the block-entry
	// countdown before the next recompile attempt, so a flapping profile
	// converges to the conservative artifact instead of thrashing the
	// compiler. The budget check in promoteT2 is the hard stop.
	shift := uint(mt.specAttempts)
	if shift > 20 {
		shift = 20
	}
	mt.budget = t.policy.T2Blocks << shift
	mt.fn2, mt.cf2 = nil, nil
	mt.spec = nil
	if t.compile != nil {
		start := time.Now()
		_, _ = t.compile(nil) // conservative recompile through the cache
		t.compileHost += time.Since(start)
	}
	if fr != nil {
		fr.deoptFn = mt.fn0
		fr.deoptCf = t.m.compiled(mt.fn0)
	}
	t.events = append(t.events, TierEvent{Method: mt.name, Kind: "deopt", Check: ord})
	t.m.Recorder.Record(t.m.steps, "tier", "deopt", mt.name,
		fmt.Sprintf("guard %d fired: blacklisted, backoff %d blocks", ord, mt.budget))
}

// Blacklisted returns the blacklisted check ordinals per method, sorted —
// the deopt-storm tests assert convergence with it.
func (m *Machine) Blacklisted() map[string][]int {
	if m.tier == nil {
		return nil
	}
	out := make(map[string][]int)
	for name, bl := range m.tier.black {
		for ord := range bl {
			out[name] = append(out[name], ord)
		}
		sort.Ints(out[name])
	}
	return out
}
