package bench

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"trapnull/internal/arch"
	"trapnull/internal/ir"
	"trapnull/internal/jit"
	"trapnull/internal/machine"
	"trapnull/internal/obs"
	"trapnull/internal/workloads"
)

// Policy sweeps: the bench modes behind benchtab -tier and -degradation.
// Where the paper's tables compare static configurations, a policy sweep
// compares execution POLICIES on one configuration per model. Each cell is
// the paper sweep's cell (measureCell), invoked several times on one machine
// that the policy set up:
//
//	interp       untiered switch interpreter (tier 0 forever)
//	eager        untiered closure engine, every method closure-compiled up
//	             front (the all-at-once tier 1)
//	tiered       adaptive 0→1: interpret until hot, then closure-compile
//	tiered-spec  full ladder 0→1→2: additionally recompile hot methods with
//	             profile-guided speculation guards on never-null checks, and
//	             deoptimize when a guard fires
//	implicit     the model's trap-based configuration, static — optimal on
//	             clean profiles, pays the full ~5000-cycle trap dispatch per
//	             null
//	explicit     the same optimization pipeline with trap conversion off
//	             (ExplicitConfig) — every surviving check is an explicit
//	             instruction; nulls cost a cheap software throw
//	governed     starts on the implicit configuration and lets the machine's
//	             trap-storm governor demote storming sites to explicit checks
//	             at runtime (machine.EnableGovernor)
//
// Every invocation of every cell verifies its checksum against the pure-Go
// reference, so all policies agreeing with the reference is the differential
// check. Steady-state cycles are the LAST invocation's cycle delta — by then
// promotions and demotions have settled. Compile-time-to-peak is the host
// time spent compiling before the peak tier ran: the initial jit compile for
// everyone, plus eager's up-front closure compilation, plus the tier
// controller's promotion/recompile cost for the adaptive policies.
//
// The tiered sweep (interp, eager, tiered, tiered-spec) runs hot kernels and
// lying profiles under each model's best static configuration; the
// degradation sweep (implicit, explicit, governed) runs the storm family and
// renders the graceful-degradation table the trap-storm governor is judged
// by (DESIGN.md §12): governed converges to explicit costs on stormy sites
// while clean sites keep their free implicit checks.

// PolicyCell is one (workload, policy) measurement.
type PolicyCell struct {
	Workload string
	Policy   string
	Reps     int
	// FirstCycles is invocation 1's simulated cost (promotion and demotion
	// transients included); SteadyCycles is the final invocation's,
	// TotalCycles the sum over all of them.
	FirstCycles  int64
	SteadyCycles int64
	TotalCycles  int64
	// SteadyTraps / SteadyChecks are the final invocation's hardware traps
	// and dynamic explicit checks.
	SteadyTraps  int64
	SteadyChecks int64
	// CompileToPeak is host time: initial jit compile + up-front closure
	// compiles (eager) + tier promotions and speculative recompiles
	// (tiered).
	CompileToPeak time.Duration
	// PromotionsT1 / PromotionsT2 count the tier controller's promotions.
	PromotionsT1 int
	PromotionsT2 int
	// The tier controller's and the governor's reports, surfaced in
	// benchtab -json; zero for the policies that use neither. Both carry
	// Events and CompileHost, which are selected through the type name.
	machine.TierReport
	machine.GovernorReport
	// Err marks a failed cell (compile error, checksum mismatch, policy
	// divergence); measurement fields are zero.
	Err string
}

// Failed reports whether the cell is an error entry.
func (c *PolicyCell) Failed() bool { return c.Err != "" }

// PolicyOptions tunes a policy sweep.
type PolicyOptions struct {
	// Quick selects the small problem sizes (used by tests) and scales the
	// tier and governor thresholds down so those sizes still cross them.
	Quick bool
	// Reps is invocations per cell; the last one is the steady-state
	// measurement. A tiered sweep needs at least 3 (warm-up, promotions,
	// steady) and defaults to 4; a degradation sweep needs at least 2
	// (storm and demote, steady) and defaults to 3. Values below the floor
	// select the default.
	Reps int

	// Timeline, when non-nil, attaches a flight recorder to every cell's
	// machine and merges its promotion/deopt/demotion events into the
	// timeline; the untiered policies (interp, eager, implicit, explicit)
	// additionally carry trap-cost attribution. Trace, when non-nil, gives
	// each cell a lane of compile and per-invocation spans with the
	// recorded events as instant markers. Metrics, when non-nil, receives
	// the tier or governor counters of each cell.
	Timeline *obs.Timeline
	Trace    *obs.Trace
	Metrics  *obs.Registry
}

// PolicyMatrix holds one (model, config) policy sweep.
type PolicyMatrix struct {
	Model *arch.Model
	// Config is the configuration the policies run; the degradation
	// sweep's explicit policy runs ExplicitConfig instead.
	Config    jit.Config
	Workloads []*workloads.Workload
	Policies  []string
	Quick     bool
	Reps      int
	// Cells is indexed [policy][workload name].
	Cells map[string]map[string]*PolicyCell

	kind *policyKind
}

// Cell returns the measurement for (policy, workload).
func (m *PolicyMatrix) Cell(policy, workload string) *PolicyCell {
	if row, ok := m.Cells[policy]; ok {
		return row[workload]
	}
	return nil
}

// PolicyReport bundles the sweeps of both machines.
type PolicyReport struct {
	Win  *PolicyMatrix // ia32-win
	AIX  *PolicyMatrix // ppc-aix
	kind *policyKind
}

// The tiered and degradation sweeps' names for the policy-sweep types.
type (
	TierOptions        = PolicyOptions
	TierMatrix         = PolicyMatrix
	DegradationOptions = PolicyOptions
	DegradationMatrix  = PolicyMatrix
)

// policyKind is one family of policy sweeps: the policies it compares, its
// workloads and per-model configurations, its invocation count, and the
// metrics, table columns and JSON cell shape it reports.
type policyKind struct {
	policies    []string
	workloads   func() []*workloads.Workload
	win, aix    func() jit.Config
	minReps     int
	defaultReps int
	metrics     counterSet[*PolicyCell]
	title       string
	columns     []policyColumn
	notes       []string
	flag, label string // JSON generated_by flag and matrix-name suffix
	jsonCell    func(*PolicyCell) any
}

// policyColumn is one table column after workload and policy.
type policyColumn struct {
	head string
	val  func(*PolicyCell) int64
}

// tierKind is the tiered sweep, run under each model's best static
// configuration — the hardest baseline for tier 2 to beat.
var tierKind = &policyKind{
	policies:    []string{"interp", "eager", "tiered", "tiered-spec"},
	workloads:   TieredWorkloads,
	win:         jit.ConfigPhase1Phase2,
	aix:         jit.ConfigAIXSpeculation,
	minReps:     3,
	defaultReps: 4,
	metrics:     tierMetrics,
	title:       "Tiered execution",
	columns: []policyColumn{
		{"steady cycles", func(c *PolicyCell) int64 { return c.SteadyCycles }},
		{"first cycles", func(c *PolicyCell) int64 { return c.FirstCycles }},
		{"compile-to-peak (us)", func(c *PolicyCell) int64 { return int64(c.CompileToPeak / time.Microsecond) }},
		{"t1", func(c *PolicyCell) int64 { return int64(c.PromotionsT1) }},
		{"t2", func(c *PolicyCell) int64 { return int64(c.PromotionsT2) }},
		{"deopts", func(c *PolicyCell) int64 { return int64(c.Deopts) }},
		{"spec live", func(c *PolicyCell) int64 { return int64(c.SpecLive) }},
	},
	notes: []string{
		"policies: interp = switch interpreter; eager = closure engine, all methods compiled up front;",
		"tiered = adaptive interpreter->closure; tiered-spec = + profile-guided speculation with deopt.",
		"compile-to-peak is host time (jit compile + closure compiles + tier recompiles); cycles are simulated.",
	},
	flag:     "-tier",
	label:    "tiered",
	jsonCell: tierJSON,
}

// degradationKind is the trap-storm degradation sweep, starting from each
// model's implicit configuration.
var degradationKind = &policyKind{
	policies:    []string{"implicit", "explicit", "governed"},
	workloads:   DegradationWorkloads,
	win:         ImplicitConfigWin,
	aix:         ImplicitConfigAIX,
	minReps:     2,
	defaultReps: 3,
	metrics:     governorMetrics,
	title:       "Trap-storm degradation",
	columns: []policyColumn{
		{"steady cycles", func(c *PolicyCell) int64 { return c.SteadyCycles }},
		{"first cycles", func(c *PolicyCell) int64 { return c.FirstCycles }},
		{"steady traps", func(c *PolicyCell) int64 { return c.SteadyTraps }},
		{"steady checks", func(c *PolicyCell) int64 { return c.SteadyChecks }},
		{"demotions", func(c *PolicyCell) int64 { return int64(c.Demotions) }},
		{"recompiles", func(c *PolicyCell) int64 { return int64(c.Recompiles) }},
		{"pinned", func(c *PolicyCell) int64 { return int64(len(c.Pinned)) }},
	},
	notes: []string{
		"policies: implicit = static trap-based checks; explicit = same pipeline, every check explicit;",
		"governed = implicit start + runtime trap-storm governor (demote storming sites, pin on budget).",
		"steady cycles show the governor converging to explicit costs on stormy sites while clean",
		"sites keep their free implicit checks.",
	},
	flag:     "-degradation",
	label:    "degradation",
	jsonCell: degradationJSON,
}

// TieredWorkloads is the workload set of the tiered tables: hot null-free
// kernels where speculation should win (NumericSort, Assignment, Compress),
// the far-offset kernel whose surviving explicit check is the canonical
// speculation target (BigOffsetWalk), and the two adversarial ones where the
// profile lies and guards must deoptimize (NullStorm, LateNullStorm).
func TieredWorkloads() []*workloads.Workload {
	return []*workloads.Workload{
		workloads.NumericSort(),
		workloads.Assignment(),
		workloads.Compress(),
		workloads.BigOffsetWalk(),
		workloads.NullStorm(),
		workloads.LateNullStorm(),
	}
}

// DegradationWorkloads is the storm family of the degradation tables.
func DegradationWorkloads() []*workloads.Workload {
	return []*workloads.Workload{
		workloads.TrapStorm(),
		workloads.FlappingNull(),
		workloads.PhaseShiftNull(),
	}
}

// ExplicitConfig is the all-explicit comparison policy: the same phase-1
// elimination pipeline as the implicit configurations, but with every
// surviving check emitted as an explicit instruction (no trap conversion,
// no folding) on either model.
func ExplicitConfig() jit.Config {
	return jit.Config{
		Name:       "AllExplicit",
		Inline:     true,
		Algo:       jit.AlgoNew,
		Iterations: 3,
		OtherOpts:  true,
	}
}

// ImplicitConfigWin / ImplicitConfigAIX are the per-model implicit
// configurations the governor starts from: the paper's full Phase1+2 on
// ia32-win, and the legal write-implicit extension on ppc-aix (speculation
// off — the governor bets in the opposite direction and disables tier-2
// speculation anyway).
func ImplicitConfigWin() jit.Config { return jit.ConfigPhase1Phase2() }

func ImplicitConfigAIX() jit.Config {
	c := jit.ConfigAIXWriteImplicit()
	c.Name = "WriteImplicit"
	c.Speculation = false
	return c
}

// adaptive reports whether a policy's machine is tiered or governed; such
// machines mix block-aligned artifact generations and report no trap-cost
// attribution ledger by design.
func adaptive(policy string) bool {
	return policy == "tiered" || policy == "tiered-spec" || policy == "governed"
}

// setupPolicy configures a cell's freshly built machine for policy and
// returns the host time it spent compiling up front. recompile compiles the
// cell's workload with the given speculation or demote set. The static
// policies ("" and implicit, explicit) run the machine as built.
func setupPolicy(policy string, m *machine.Machine, quick bool, recompile func(jit.CompileOptions) (*ir.Program, error)) time.Duration {
	switch policy {
	case "interp":
		m.Engine = machine.EngineSwitch
	case "eager":
		m.Engine = machine.EngineClosure
		return m.PrecompileClosures()
	case "tiered":
		m.EnableTiering(tierPolicy(quick), nil)
	case "tiered-spec":
		m.EnableTiering(tierPolicy(quick), func(mask map[string][]int) (*ir.Program, error) {
			return recompile(jit.CompileOptions{Spec: mask})
		})
	case "governed":
		m.EnableGovernor(governorPolicy(quick), func(demote map[string][]int) (*ir.Program, error) {
			return recompile(jit.CompileOptions{Demote: demote})
		})
	}
	return 0
}

// tierPolicy is machine.DefaultTierPolicy, scaled down under quick: small
// problem sizes enter far fewer blocks — and the closure engine's block
// batching makes its entries coarser still — so the thresholds shrink until
// the quick sweep exercises the whole ladder within the default rep count.
func tierPolicy(quick bool) machine.TierPolicy {
	p := machine.DefaultTierPolicy()
	if quick {
		p.T1Blocks, p.T2Blocks, p.MinCheckExecs = 128, 128, 16
	}
	return p
}

// governorPolicy is machine.DefaultGovernorPolicy, scaled down under quick
// so the small problem sizes still cross the demotion thresholds.
func governorPolicy(quick bool) machine.GovernorPolicy {
	p := machine.DefaultGovernorPolicy()
	if quick {
		p.MinSiteExecs, p.BackoffTraps = 64, 8
	}
	return p
}

// RunTiered sweeps the tiered policies × workloads for one (model, config).
func RunTiered(model *arch.Model, cfg jit.Config, ws []*workloads.Workload, opts PolicyOptions) (*PolicyMatrix, error) {
	return runPolicies(tierKind, model, cfg, ws, opts)
}

// RunDegradation sweeps the degradation policies × workloads for one model.
// implicitCfg is the trap-based configuration the implicit and governed rows
// run on.
func RunDegradation(model *arch.Model, implicitCfg jit.Config, ws []*workloads.Workload, opts PolicyOptions) (*PolicyMatrix, error) {
	return runPolicies(degradationKind, model, implicitCfg, ws, opts)
}

// RunTieredAll produces the full tiered report. Both sweeps run to
// completion even when cells fail.
func RunTieredAll(opts PolicyOptions) (*PolicyReport, error) { return runPolicyReport(tierKind, opts) }

// RunDegradationAll produces the full degradation report. Both sweeps run
// to completion even when cells fail.
func RunDegradationAll(opts PolicyOptions) (*PolicyReport, error) {
	return runPolicyReport(degradationKind, opts)
}

func runPolicyReport(k *policyKind, opts PolicyOptions) (*PolicyReport, error) {
	var errs []string
	run := func(model *arch.Model, cfg jit.Config) *PolicyMatrix {
		m, err := runPolicies(k, model, cfg, k.workloads(), opts)
		if err != nil {
			errs = append(errs, err.Error())
		}
		return m
	}
	rep := &PolicyReport{Win: run(arch.IA32Win(), k.win()), AIX: run(arch.PPCAIX(), k.aix()), kind: k}
	if len(errs) > 0 {
		return rep, errors.New(strings.Join(errs, "\n  "))
	}
	return rep, nil
}

// runPolicies sweeps k's policies × workloads for one (model, config) in
// workload-major, policy-minor order.
func runPolicies(k *policyKind, model *arch.Model, cfg jit.Config, ws []*workloads.Workload, opts PolicyOptions) (*PolicyMatrix, error) {
	k.metrics.register(opts.Metrics)
	m := &PolicyMatrix{
		Model:     model,
		Config:    cfg,
		Workloads: ws,
		Policies:  k.policies,
		Quick:     opts.Quick,
		Reps:      k.defaultReps,
		Cells:     make(map[string]map[string]*PolicyCell),
		kind:      k,
	}
	if opts.Reps >= k.minReps {
		m.Reps = opts.Reps
	}
	for _, pol := range m.Policies {
		m.Cells[pol] = make(map[string]*PolicyCell, len(ws))
	}
	var specs []cellSpec
	for _, w := range ws {
		for _, pol := range m.Policies {
			c := cfg
			if pol == "explicit" {
				c = ExplicitConfig()
			}
			specs = append(specs, cellSpec{model: model, cfg: c, w: w, policy: pol,
				name: pol + "/" + w.Name, reps: m.Reps})
		}
	}
	// One worker and no deadline: compile-to-peak is host time, which
	// concurrent cells would perturb.
	measured, err := sweep(specs, Options{Quick: opts.Quick, Parallelism: 1,
		Trace: opts.Trace, Timeline: opts.Timeline})
	for i, s := range specs {
		c := newPolicyCell(s, measured[i])
		m.Cells[s.policy][s.w.Name] = c
		if !c.Failed() {
			k.metrics.publish(opts.Metrics, c)
		}
	}
	return m, err
}

// newPolicyCell projects a measurement of a policy sweep into its cell.
func newPolicyCell(s cellSpec, ms *measurement) *PolicyCell {
	c := &PolicyCell{Workload: s.w.Name, Policy: s.policy, Err: ms.err}
	if c.Failed() {
		return c
	}
	c.Reps = s.reps
	c.FirstCycles, c.SteadyCycles, c.TotalCycles = ms.first, ms.steady, ms.total
	c.SteadyTraps, c.SteadyChecks = ms.steadyTraps, ms.steadyChecks
	c.TierReport, c.GovernorReport = ms.tier, ms.gov
	c.CompileToPeak = ms.toPeak + c.TierReport.CompileHost
	for _, ev := range c.TierReport.Events {
		switch ev.Kind {
		case "promote-t1":
			c.PromotionsT1++
		case "promote-t2":
			c.PromotionsT2++
		}
	}
	return c
}

// Table renders one matrix: per workload per policy, the kind's columns.
func (m *PolicyMatrix) Table() string {
	k := m.kind
	title := fmt.Sprintf("%s: %s, %s (steady state = last of %d invocations%s)",
		k.title, m.Model.Name, m.Config.Name, m.Reps, quickNote(m.Quick))
	header := []string{"workload", "policy"}
	for _, col := range k.columns {
		header = append(header, col.head)
	}
	var rows [][]string
	for _, w := range m.Workloads {
		for _, pol := range m.Policies {
			row := make([]string, len(header))
			row[0], row[1] = w.Name, pol
			switch c := m.Cell(pol, w.Name); {
			case c == nil:
				row[2] = "MISSING"
			case c.Failed():
				row[2] = "ERROR(" + c.Err + ")"
			default:
				for i, col := range k.columns {
					row[2+i] = strconv.FormatInt(col.val(c), 10)
				}
			}
			rows = append(rows, row)
		}
	}
	return renderGrid(title, header, rows, k.notes...)
}

func quickNote(quick bool) string {
	if quick {
		return ", quick sizes"
	}
	return ""
}

// Render renders both matrices.
func (r *PolicyReport) Render() string {
	return r.Win.Table() + "\n" + r.AIX.Table()
}
