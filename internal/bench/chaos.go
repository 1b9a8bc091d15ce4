package bench

import (
	"fmt"
	"strings"
	"time"

	"trapnull/internal/arch"
	"trapnull/internal/faultinject"
	"trapnull/internal/jit"
	"trapnull/internal/obs"
	"trapnull/internal/workloads"
)

// Chaos harness: the bench mode behind benchtab -chaos. One seed drives a
// deterministic fault-injection schedule (internal/faultinject) over a
// compact sweep of both models: compile passes panic, engines fault
// mid-execution, and the seeded-burst workload bakes adversarial null bursts
// into its kernel. The contract under all of that:
//
//   - the sweep always completes — every injected fault degrades to a
//     deterministic ERROR(...) cell, never a hang or a partial sweep;
//   - the report is byte-for-byte reproducible from the seed, at any worker
//     count and on either execution engine (the schedule keys on semantic
//     coordinates, not timing — see the faultinject package doc).
//
// RunChaos returns an error only for UNEXPECTED failures: cells that failed
// for a reason the injector cannot produce (checksum mismatch, genuine
// machine errors). Injected failures are the point, not a problem.

// ChaosOptions tunes a chaos run.
type ChaosOptions struct {
	// Parallelism bounds concurrent cells (0 = GOMAXPROCS); the report is
	// identical at any setting.
	Parallelism int
	// CellTimeout is the per-cell wall-clock deadline; 0 selects 30s. It is
	// the last-resort backstop — injected faults are all deterministic, so a
	// timeout firing means a genuine hang (and fails the run).
	CellTimeout time.Duration
	// Timeline / Metrics are forwarded to the underlying sweeps: the
	// timeline collects every cell's chaos arm/fire events, the registry
	// totals the sweep counters.
	Timeline *obs.Timeline
	Metrics  *obs.Registry
}

func (o ChaosOptions) cellTimeout() time.Duration {
	if o.CellTimeout > 0 {
		return o.CellTimeout
	}
	return 30 * time.Second
}

// ChaosReport is the canonical chaos run record: one line per cell in
// declaration order plus the injector's armed-decision schedule. Render is
// byte-identical across runs with the same seed.
type ChaosReport struct {
	Seed  int64
	Lines []string
	// Schedule is the sorted armed-decision list (faultinject.Schedule).
	Schedule []string
	// Unexpected collects failures the injector cannot explain; empty on a
	// healthy run.
	Unexpected []string
}

// Render produces the canonical report text.
func (r *ChaosReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos seed=%d cells=%d\n", r.Seed, len(r.Lines))
	for _, l := range r.Lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	b.WriteString("schedule:\n")
	for _, l := range r.Schedule {
		b.WriteString("  ")
		b.WriteString(l)
		b.WriteByte('\n')
	}
	return b.String()
}

// chaosSweeps is the compact model × config matrix of the chaos run.
func chaosSweeps(seed int64) []struct {
	model   *arch.Model
	configs []jit.Config
	ws      []*workloads.Workload
} {
	ws := []*workloads.Workload{
		workloads.TrapStorm(),
		workloads.FlappingNull(),
		workloads.PhaseShiftNull(),
		workloads.NullStorm(),
		workloads.SeededBurst(seed),
	}
	return []struct {
		model   *arch.Model
		configs []jit.Config
		ws      []*workloads.Workload
	}{
		{arch.IA32Win(), []jit.Config{ImplicitConfigWin(), ExplicitConfig()}, ws},
		{arch.PPCAIX(), []jit.Config{ImplicitConfigAIX()}, ws},
	}
}

// injectedFailure reports whether a cell error is one the injector produces
// by design (as opposed to a genuine bug surfacing under chaos).
func injectedFailure(reason string) bool {
	return strings.Contains(reason, "injected pass fault") ||
		strings.Contains(reason, "injected step fault")
}

// RunChaos executes the seeded chaos sweep. The returned report is
// byte-for-byte reproducible from the seed; the returned error is non-nil
// only when a cell failed for a reason fault injection cannot explain.
func RunChaos(seed int64, opts ChaosOptions) (*ChaosReport, error) {
	inj := faultinject.New(seed)
	rep := &ChaosReport{Seed: seed}

	for _, sw := range chaosSweeps(seed) {
		// Quick sizes, per-cell deadline as the hang backstop. Run's own
		// aggregate error restates the per-cell Err fields, which the loop
		// below classifies line by line — so it is deliberately dropped.
		m, _ := Run(sw.model, sw.configs, sw.ws, Options{
			Quick:       true,
			Parallelism: opts.Parallelism,
			CellTimeout: opts.cellTimeout(),
			Inject:      inj,
			Timeline:    opts.Timeline,
			Metrics:     opts.Metrics,
		})
		for _, cfg := range sw.configs {
			for _, w := range sw.ws {
				c := m.Cell(cfg.Name, w.Name)
				id := sw.model.Name + "/" + cfg.Name + "/" + w.Name
				switch {
				case c == nil:
					rep.Lines = append(rep.Lines, "cell "+id+" MISSING")
					rep.Unexpected = append(rep.Unexpected, id+": missing cell")
				case c.Failed():
					rep.Lines = append(rep.Lines, "cell "+id+" "+c.ErrText())
					if !injectedFailure(c.Err) {
						rep.Unexpected = append(rep.Unexpected, id+": "+c.Err)
					}
				default:
					rep.Lines = append(rep.Lines, fmt.Sprintf(
						"cell %s ok cycles=%d traps=%d checks=%d",
						id, c.Cycles, c.Exec.TrapsTaken, c.Exec.ExplicitChecks))
				}
			}
		}
	}
	rep.Schedule = inj.Schedule()

	if len(rep.Unexpected) > 0 {
		return rep, fmt.Errorf("chaos: %d unexpected failure(s):\n  %s",
			len(rep.Unexpected), strings.Join(rep.Unexpected, "\n  "))
	}
	return rep, nil
}
