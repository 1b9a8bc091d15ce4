package bench

import (
	"encoding/json"
	"time"

	"trapnull/internal/machine"
	"trapnull/internal/obs"
)

// jsonCell is the export shape of one measurement.
type jsonCell struct {
	Workload       string  `json:"workload"`
	Config         string  `json:"config"`
	Cycles         int64   `json:"cycles"`
	SimSeconds     float64 `json:"sim_seconds"`
	CompileNullUS  int64   `json:"compile_nullcheck_us"`
	CompileOtherUS int64   `json:"compile_other_us"`
	ExplicitChecks int64   `json:"dyn_explicit_checks"`
	ImplicitSites  int64   `json:"dyn_implicit_sites"`
	BoundChecks    int64   `json:"dyn_bound_checks"`
	Loads          int64   `json:"dyn_loads"`
	Stores         int64   `json:"dyn_stores"`
	TrapsTaken     int64   `json:"dyn_traps_taken"`
	StaticImplicit int     `json:"static_implicit"`
	StaticExplicit int     `json:"static_explicit_left"`
	Eliminated     int     `json:"static_eliminated"`
	// Fates and Profile are the obs-layer extensions: the per-cell
	// null-check fate histogram (Options.Remarks) and the hot-block
	// execution summary (Options.Profile). Both are omitted entirely when
	// the layer is off, so obs-disabled JSON is byte-identical to the
	// pre-obs shape; both are fixed-order structs with sorted slices, so
	// two marshals of the same sweep are byte-identical.
	Fates   *obs.FateCounts     `json:"check_fates,omitempty"`
	Profile *obs.ProfileSummary `json:"profile,omitempty"`
	// TrapCost is the per-trap-site cycle ledger (Options.Timeline); its
	// buckets sum exactly to Cycles. Omitted when telemetry is off.
	TrapCost *obs.Attribution `json:"trap_cost,omitempty"`
	// Error carries the deterministic failure reason of an error cell; the
	// measurement fields are zero when it is set.
	Error string `json:"error,omitempty"`
}

// jsonReport is the export shape of a full run.
type jsonReport struct {
	GeneratedBy string                `json:"generated_by"`
	Matrices    map[string][]jsonCell `json:"matrices"`
}

// JSON renders the whole report as machine-readable JSON, for plotting or
// external analysis.
func (r *Report) JSON() ([]byte, error) {
	out := jsonReport{
		GeneratedBy: "trapnull benchtab",
		Matrices:    map[string][]jsonCell{},
	}
	add := func(name string, m *Matrix) {
		var cells []jsonCell
		for _, cfg := range m.Configs {
			for _, w := range m.Workloads {
				c := m.Cell(cfg.Name, w.Name)
				if c == nil {
					continue
				}
				// A failed cell's measurement fields are zero, so it exports
				// as workload, config and error alone.
				cells = append(cells, jsonCell{
					Workload:       c.Workload,
					Config:         c.Config,
					Cycles:         c.Cycles,
					SimSeconds:     c.SimSeconds,
					CompileNullUS:  int64(c.CompileNull / time.Microsecond),
					CompileOtherUS: int64(c.CompileOther / time.Microsecond),
					ExplicitChecks: c.Exec.ExplicitChecks,
					ImplicitSites:  c.Exec.ImplicitSites,
					BoundChecks:    c.Exec.BoundChecks,
					Loads:          c.Exec.Loads,
					Stores:         c.Exec.Stores,
					TrapsTaken:     c.Exec.TrapsTaken,
					StaticImplicit: c.Static.Checks.Implicit,
					StaticExplicit: c.Static.Checks.ExplicitRemaining,
					Eliminated:     c.Static.Checks.Eliminated,
					Fates:          c.Fates,
					Profile:        c.Profile,
					TrapCost:       c.Attr,
					Error:          c.Err,
				})
			}
		}
		out.Matrices[name] = cells
	}
	add("windows_jbytemark", r.WinJB)
	add("windows_specjvm98", r.WinSpec)
	add("aix_jbytemark", r.AIXJB)
	add("aix_specjvm98", r.AIXSpec)
	return json.MarshalIndent(out, "", "  ")
}

// jsonTierCell is the export shape of one tiered measurement.
type jsonTierCell struct {
	Workload      string `json:"workload"`
	Policy        string `json:"policy"`
	Reps          int    `json:"reps"`
	FirstCycles   int64  `json:"first_cycles"`
	SteadyCycles  int64  `json:"steady_cycles"`
	TotalCycles   int64  `json:"total_cycles"`
	CompileToPeak int64  `json:"compile_to_peak_us"`
	PromotionsT1  int    `json:"promotions_t1"`
	PromotionsT2  int    `json:"promotions_t2"`
	Deopts        int    `json:"deopts"`
	SpecLive      int    `json:"spec_live"`
	OSREntries    int    `json:"osr_entries"`
	// BudgetExhausted and Events surface the rest of machine.TierReport:
	// parked methods (sorted) and the full decision log in occurrence order.
	BudgetExhausted []string            `json:"budget_exhausted,omitempty"`
	Events          []machine.TierEvent `json:"events,omitempty"`
	Error           string              `json:"error,omitempty"`
}

// jsonDegradationCell is the export shape of one degradation measurement.
type jsonDegradationCell struct {
	Workload     string `json:"workload"`
	Policy       string `json:"policy"`
	Reps         int    `json:"reps"`
	FirstCycles  int64  `json:"first_cycles"`
	SteadyCycles int64  `json:"steady_cycles"`
	SteadyTraps  int64  `json:"steady_traps"`
	SteadyChecks int64  `json:"steady_checks"`
	Demotions    int    `json:"demotions"`
	Recompiles   int    `json:"recompiles"`
	Pinned       int    `json:"pinned"`
	// The remaining fields surface machine.GovernorReport: the canonical
	// per-site profile totals, swallowed-trap count, pinned method names
	// (sorted) and the full demotion decision log in occurrence order.
	SiteExecs     int64                   `json:"site_execs"`
	SiteNulls     int64                   `json:"site_nulls"`
	Backoffs      int64                   `json:"backoffs"`
	PinnedMethods []string                `json:"pinned_methods,omitempty"`
	Events        []machine.GovernorEvent `json:"events,omitempty"`
	Error         string                  `json:"error,omitempty"`
}

// tierJSON and degradationJSON project a policy cell into its sweep's
// export shape. A failed cell's measurement fields are zero, so it exports
// its zero values and the error.
func tierJSON(c *PolicyCell) any {
	return jsonTierCell{
		Workload:        c.Workload,
		Policy:          c.Policy,
		Reps:            c.Reps,
		FirstCycles:     c.FirstCycles,
		SteadyCycles:    c.SteadyCycles,
		TotalCycles:     c.TotalCycles,
		CompileToPeak:   int64(c.CompileToPeak / time.Microsecond),
		PromotionsT1:    c.PromotionsT1,
		PromotionsT2:    c.PromotionsT2,
		Deopts:          c.Deopts,
		SpecLive:        c.SpecLive,
		OSREntries:      c.OSREntries,
		BudgetExhausted: c.BudgetExhausted,
		Events:          c.TierReport.Events,
		Error:           c.Err,
	}
}

func degradationJSON(c *PolicyCell) any {
	return jsonDegradationCell{
		Workload:      c.Workload,
		Policy:        c.Policy,
		Reps:          c.Reps,
		FirstCycles:   c.FirstCycles,
		SteadyCycles:  c.SteadyCycles,
		SteadyTraps:   c.SteadyTraps,
		SteadyChecks:  c.SteadyChecks,
		Demotions:     c.Demotions,
		Recompiles:    c.Recompiles,
		Pinned:        len(c.Pinned),
		SiteExecs:     c.SiteExecs,
		SiteNulls:     c.SiteNulls,
		Backoffs:      c.Backoffs,
		PinnedMethods: c.Pinned,
		Events:        c.GovernorReport.Events,
		Error:         c.Err,
	}
}

// jsonPolicyReport is the export shape of a policy run.
type jsonPolicyReport struct {
	GeneratedBy string           `json:"generated_by"`
	Matrices    map[string][]any `json:"matrices"`
}

// JSON renders the policy report as machine-readable JSON. Cells appear in
// workload-major, policy-minor order, so two marshals of the same sweep are
// byte-identical up to the host compile timings.
func (r *PolicyReport) JSON() ([]byte, error) {
	k := r.kind
	out := jsonPolicyReport{
		GeneratedBy: "trapnull benchtab " + k.flag,
		Matrices:    map[string][]any{},
	}
	add := func(name string, m *PolicyMatrix) {
		if m == nil {
			return
		}
		var cells []any
		for _, w := range m.Workloads {
			for _, pol := range m.Policies {
				if c := m.Cell(pol, w.Name); c != nil {
					cells = append(cells, k.jsonCell(c))
				}
			}
		}
		out.Matrices[name] = cells
	}
	add("windows_"+k.label, r.Win)
	add("aix_"+k.label, r.AIX)
	return json.MarshalIndent(out, "", "  ")
}
