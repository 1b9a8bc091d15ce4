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
// engine-equivalence invariant), and the faulting invocation transfers to
// that artifact at the raise dispatch. Because the guard sits at the
// original check's program point — before any side effect the check was
// protecting — no heap or local state needs rolling back, and the final
// Outcome is identical to the untiered engines by construction, even when
// the profile lies.
//
// Promotion thresholds count block entries, the same facts
// obs.ExecProfile records, in decremented form. Tier 0→1 is the hot
// countdown every machine runs (fnEntry.countdown): a tiered machine arms it
// from T1Blocks, and when it expires promoteT1 takes the place of the
// untiered machine's compile, so the interpreter pays the same
// decrement-and-test per block entry tiered or not. Tier 1→2 counts
// methodTier.budget in the closure engine. Speculation candidates come from
// the per-check counters the profile accumulates (obs.CheckCounts), which
// both engines maintain through pointers bound at prepare/closure-compile
// time.
//
// One controller serves both adaptive policies. Tier-2 speculation moves
// checks toward implicit, the trap-storm governor (governor.go) moves them
// back, and both do it the same way: a whole-program recompile under a
// per-method set of check ordinals (the Recompiler callback rebuilds and
// recompiles the source program, so the machine package never imports the
// jit package), adopted as a new block-aligned generation. Every method has
// one record (methodTier) holding its tier rung, its speculation state and
// its governor state; recompile and adopt are the one generation path.
// Speculation is a post-pipeline flag flip on a deterministic recompile,
// which keeps every artifact block-for-block aligned with the conservative
// one — that alignment is what makes on-stack replacement (tier 0→1 and 1→2
// hand-offs mid-invocation) and deopt transfers exact.

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
	return TierPolicy{T1Blocks: hotBlockEntries, T2Blocks: 8192, MinCheckExecs: 64,
		SpecRecompileBudget: DefaultSpecRecompileBudget}
}

// Recompiler compiles the machine's source program under a set of per-check
// overrides — method qualified name → ordinals — and returns the compiled
// program. The controller calls it only to build a new generation, so the
// set is never empty: the tier controller passes speculation masks
// (ordinals in ir.Func.NullChecks order), the governor demote sets
// (trap-site ordinals forced back to explicit checks). The bench harness
// supplies a closure that rebuilds the workload and compiles it afresh.
type Recompiler func(set map[string][]int) (*ir.Program, error)

// tierLevel is a method's current rung.
type tierLevel uint8

const (
	tierInterp       tierLevel = iota // switch interpreter, counting toward tier 1
	tierClosure                       // closure engine, counting toward tier 2
	tierClosureFinal                  // closure engine, no further promotion
	tierSpec                          // speculative closure artifact
)

// methodTier is one method's record: its tier rung and speculation state,
// which reset drops, and its governor state, which reset keeps.
type methodTier struct {
	name   string
	tier   tierLevel
	budget int64    // tier 1: block entries remaining until the next tier-2 attempt
	fn0    *ir.Func // conservative artifact (the program's Method.Fn, or the adopted governed generation)
	fn2    *ir.Func // speculative artifact body; nil below tier 2
	cf2    *cFunc
	spec   []int  // ordinals speculated in fn2
	black  ordSet // blacklisted check ordinals (guards that fired)
	// specAttempts counts tier-2 speculative recompiles; capped by
	// TierPolicy.SpecRecompileBudget with exponential deopt backoff.
	specAttempts int
	// exhausted marks the method parked by a spent recompile budget.
	exhausted bool

	govMethod
}

// ordSet is a sorted, duplicate-free set of check or trap-site ordinals.
type ordSet []int

func (s ordSet) has(ord int) bool {
	i := sort.SearchInts(s, ord)
	return i < len(s) && s[i] == ord
}

// add inserts ord, keeping the set sorted.
func (s *ordSet) add(ord int) {
	i := sort.SearchInts(*s, ord)
	if i < len(*s) && (*s)[i] == ord {
		return
	}
	*s = append(*s, 0)
	copy((*s)[i+1:], (*s)[i:])
	(*s)[i] = ord
}

// backoff is base doubled once per earlier attempt (capped at 2^20): the
// exponential spacing both policies put between a method's recompiles, so a
// flapping profile converges instead of thrashing the compiler.
func backoff(base int64, attempts int) int64 {
	return base << uint(min(attempts, 20))
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
	order []*methodTier            // method order: deterministic set building

	events      []TierEvent
	deopts      int
	osrEntries  int
	compileHost time.Duration

	// gov, when non-nil, is the trap-storm governor (EnableGovernor):
	// per-site trap-rate monitoring with implicit→explicit demotion. A
	// governed controller never speculates. See governor.go.
	gov *governor

	// guard and site hold a decision a raise triggered until the engine
	// dispatches that raise (settle). The closure engine pre-charges whole
	// stretches, so only after its rollback does m.steps read the
	// reference's count that the flight recorder logs.
	guard     *ir.Instr // a fired speculation guard
	site      govSite   // a governed trap site that just trapped...
	siteFired bool      // ...when set
}

// settle runs the decisions held since the raise now being dispatched: the
// fired guard's deoptimization and the governed site's demotion trigger. It
// returns the conservative artifact the faulting invocation transfers to
// before the raise dispatches, or nil when no guard fired (or the machine is
// untiered: t is nil).
func (t *tierController) settle(fn *ir.Func) *ir.Func {
	if t == nil {
		return nil
	}
	var fn0 *ir.Func
	if in := t.guard; in != nil {
		t.guard = nil
		fn0 = t.deopted(fn, in)
	}
	if t.siteFired {
		t.siteFired = false
		t.trigger(t.site)
	}
	return fn0
}

// EnableTiering switches the machine to tiered adaptive execution. compile
// supplies speculative recompiles; nil disables tier 2 regardless of policy.
// Tiering needs the execution profile, so one is attached if absent.
func (m *Machine) EnableTiering(policy TierPolicy, compile Recompiler) {
	if m.Profile == nil {
		m.Profile = obs.NewExecProfile()
	}
	m.tier = &tierController{m: m, policy: policy, compile: compile}
	// Drop tables prepared before tiering so every body re-arms its hot
	// countdown from the policy.
	m.ResetPrepared()
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

// byName indexes the method records by qualified name.
func (t *tierController) byName() map[string]*methodTier {
	idx := make(map[string]*methodTier, len(t.order))
	for _, mt := range t.order {
		idx[mt.name] = mt
	}
	return idx
}

// reset rebuilds the per-method table from the machine's current program.
// ResetPrepared calls it so triage bisection replays — which swap Method.Fn
// values between Calls — can never dispatch through a stale speculative
// closure of the previous generation. Every method restarts at tier 0 with
// a clean blacklist; its governor state (demote set, recompiles, backoff,
// pin, site cells) carries over by name, matching the monotone-demotion
// contract. Governor site bindings are dropped with the old records they
// point at and rebind when the bodies are next prepared.
func (t *tierController) reset() {
	prev := t.byName()
	t.byFn = make(map[*ir.Func]*methodTier)
	t.order = nil
	if t.gov != nil {
		t.gov.sites = make(map[*ir.Instr]govSite)
	}
	if t.m.Prog == nil {
		return
	}
	for _, mth := range t.m.Prog.Methods {
		if mth.Fn == nil {
			continue
		}
		mt := &methodTier{name: mth.QualifiedName(), tier: tierInterp, fn0: mth.Fn}
		if old := prev[mt.name]; old != nil {
			mt.govMethod = old.govMethod
		}
		t.byFn[mth.Fn] = mt
		t.order = append(t.order, mt)
	}
}

// stateOf returns fn's tier state, or nil for bodies outside the program
// (bare test functions). invoke looks it up once per call to run the
// artifact the method's rung selects; never on the block path. All rungs
// are observationally identical, so that choice only moves cycles between
// "explicit check" and "trap" flavors exactly as the compiled artifacts
// dictate.
func (t *tierController) stateOf(fn *ir.Func) *methodTier { return t.byFn[fn] }

// note logs one tier event and mirrors it into the flight recorder.
func (t *tierController) note(ev TierEvent, detail string) {
	t.events = append(t.events, ev)
	t.m.Recorder.Record(t.m.steps, "tier", ev.Kind, ev.Method, detail)
}

// closure closure-compiles fn, counting the host time toward
// compile-time-to-peak.
func (t *tierController) closure(fn *ir.Func) *cFunc {
	start := time.Now()
	cf := t.m.compiled(fn)
	t.compileHost += time.Since(start)
	return cf
}

// promoteT1 promotes fn's method, whose hot countdown expired, to the
// closure engine, returning the compiled artifact for the caller's on-stack
// replacement (nil when the method already left tier 0).
func (t *tierController) promoteT1(fn *ir.Func) *cFunc {
	mt := t.stateOf(fn)
	if mt == nil || mt.tier != tierInterp {
		return nil
	}
	cf := t.closure(mt.fn0)
	// Tier 2 needs a recompiler and no governor: check ordinals shift between
	// demoted generations, and the two policies bet in opposite directions.
	if t.policy.T2Blocks > 0 && t.compile != nil && t.gov == nil {
		mt.tier = tierClosure
		mt.budget = t.policy.T2Blocks
	} else {
		mt.tier = tierClosureFinal
	}
	t.osrEntries++
	t.note(TierEvent{Method: mt.name, Kind: "promote-t1", Check: -1}, "osr into closure artifact")
	return cf
}

// candidates returns the ordinals of mt's speculable checks: executed at
// least MinCheckExecs times, zero nulls observed, not blacklisted. thin
// reports whether some check is still below the execution floor (the
// promotion attempt should be retried once more data accumulates).
func (t *tierController) candidates(mt *methodTier) (ords []int, thin bool) {
	for ord, in := range mt.fn0.NullChecks() {
		if mt.black.has(ord) {
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

// promoteT2 attempts the speculative recompile of a tier-1 method under the
// whole-program mask: every method at tier 2 keeps its ordinals, mt adds its
// candidates. On success it returns the speculative body and closure
// artifact for the caller's mid-invocation hand-off. On failure it either
// re-arms the countdown (profile still too thin) or parks the method at
// tierClosureFinal (budget spent, nothing left to speculate, or the
// recompile failed).
func (t *tierController) promoteT2(mt *methodTier) (*ir.Func, *cFunc) {
	budget := t.policy.SpecRecompileBudget
	if budget <= 0 {
		budget = DefaultSpecRecompileBudget
	}
	if mt.specAttempts >= budget {
		mt.tier = tierClosureFinal
		if !mt.exhausted {
			mt.exhausted = true
			t.note(TierEvent{Method: mt.name, Kind: "spec-budget-exhausted", Check: -1},
				fmt.Sprintf("parked after %d recompiles", mt.specAttempts))
		}
		return nil, nil
	}
	cand, thin := t.candidates(mt)
	if len(cand) == 0 && thin {
		mt.budget = t.policy.T2Blocks
		return nil, nil
	}
	mt.tier = tierClosureFinal
	if len(cand) == 0 {
		return nil, nil
	}
	mt.specAttempts++
	prog2, err := t.recompile(t.siteSet(func(o *methodTier) []int {
		if o == mt {
			return cand
		}
		if o.tier == tierSpec {
			return o.spec
		}
		return nil
	}))
	if err != nil {
		return nil, nil
	}
	fn2 := t.adopt(prog2, mt)
	if fn2 == nil {
		return nil, nil
	}
	mt.tier = tierSpec
	mt.fn2, mt.cf2 = fn2, t.closure(fn2)
	mt.spec = cand
	t.osrEntries++
	t.note(TierEvent{Method: mt.name, Kind: "promote-t2", Check: -1, Specs: len(cand)},
		fmt.Sprintf("%d checks speculated", len(cand)))
	return fn2, mt.cf2
}

// siteSet assembles a whole-program recompile set: each method's ordinals
// as picked, methods with none omitted.
func (t *tierController) siteSet(pick func(*methodTier) []int) map[string][]int {
	set := make(map[string][]int)
	for _, mt := range t.order {
		if ords := pick(mt); len(ords) > 0 {
			set[mt.name] = ords
		}
	}
	return set
}

// recompile compiles the program under set. The host time counts toward the
// governor's report when governed (a governed controller never speculates)
// and toward the tier report otherwise.
func (t *tierController) recompile(set map[string][]int) (*ir.Program, error) {
	host := &t.compileHost
	if t.gov != nil {
		host = &t.gov.compileHost
	}
	start := time.Now()
	prog, err := t.compile(set)
	*host += time.Since(start)
	return prog, err
}

// adopt registers a freshly compiled program generation: every method body
// maps into byFn (calls inside the new artifact dispatch through the tier
// table like any other), and — generations being block-aligned — shares the
// conservative artifact's block-entry counter box, so the execution profile
// survives the swap instead of fragmenting across generations.
//
// A speculative generation also aliases each body's checks onto the
// conservative artifact's check counters (compilation is deterministic, so
// ordinals align), letting conservative and speculative runs accumulate one
// profile; adopt returns promoting's new body. A governed generation instead
// becomes each method's conservative artifact, so the next invocation (any
// rung, either engine) dispatches to it; demotion shifts check ordinals, so
// its site counters rebind by trap-site ordinal when the new bodies are
// prepared, and a method still at tier 0 carries its hot countdown over to
// the new body (succeed). The faulting invocation finishes on the old
// artifact — the trap that triggered the recompile already became the
// correct NullPointerException.
func (t *tierController) adopt(prog *ir.Program, promoting *methodTier) *ir.Func {
	idx := t.byName()
	var promoted *ir.Func
	for _, mth := range prog.Methods {
		mt := idx[mth.QualifiedName()]
		if mth.Fn == nil || mt == nil {
			continue
		}
		t.byFn[mth.Fn] = mt
		t.m.Profile.BindCounters(mth.Fn, mt.fn0)
		if t.gov != nil {
			t.m.succeed(mt.fn0, mth.Fn)
			mt.fn0 = mth.Fn
			continue
		}
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
// pair, demote the method to the conservative tier-1 artifact it still holds
// (mt.fn0), and return that artifact, to which the faulting invocation
// transfers at the raise dispatch (nil for a body outside the program).
// Nothing is recompiled here; re-promotion goes back through the countdown
// with the shrunken mask.
func (t *tierController) deopted(fn *ir.Func, in *ir.Instr) *ir.Func {
	mt := t.byFn[fn]
	if mt == nil {
		return nil
	}
	ord := int(in.SpecGuard) - 1
	mt.black.add(ord)
	t.deopts++
	mt.tier = tierClosure
	// Each failed speculation doubles the countdown before the next attempt;
	// the budget check in promoteT2 is the hard stop.
	mt.budget = backoff(t.policy.T2Blocks, mt.specAttempts)
	mt.fn2, mt.cf2 = nil, nil
	mt.spec = nil
	t.note(TierEvent{Method: mt.name, Kind: "deopt", Check: ord},
		fmt.Sprintf("guard %d fired: blacklisted, backoff %d blocks", ord, mt.budget))
	return mt.fn0
}

// Blacklisted returns the blacklisted check ordinals per method, sorted —
// the deopt-storm tests assert convergence with it.
func (m *Machine) Blacklisted() map[string][]int {
	if m.tier == nil {
		return nil
	}
	out := make(map[string][]int)
	for _, mt := range m.tier.order {
		if len(mt.black) > 0 {
			out[mt.name] = append([]int(nil), mt.black...)
		}
	}
	return out
}
