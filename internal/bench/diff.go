package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
)

// Benchdiff: benchstat-style comparison of two benchtab -json reports, and
// the regression gate behind cmd/benchdiff and the CI baseline check.
//
// The quantities it gates on are SIMULATED and deterministic — cycles, dynamic
// counters, fate histograms — so a delta between two runs of
// the same tree is a bug, and a delta across trees is a real behavioral
// change. Host compile timings, the one noisy column in the JSON, are never
// gated.

// DiffOptions tunes the regression gate.
type DiffOptions struct {
	// CyclesTolerancePct is how far (percent) a cell's simulated cycles may
	// rise above the baseline before it gates. Cycles are deterministic, so
	// the tolerance exists to let intentional minor cost-model adjustments
	// through, not to absorb noise; CI uses a small value.
	CyclesTolerancePct float64
	// StrictFates gates on any check-fate histogram change; otherwise fate
	// changes are notes.
	StrictFates bool
}

// Diff is the comparison result.
type Diff struct {
	// Lines is the rendered per-cell comparison in baseline order.
	Lines []string
	// Regressions lists the gating failures; empty means the gate passes.
	Regressions []string
	// Notes lists non-gating observations (improvements, fate changes,
	// new cells).
	Notes []string
}

// Ok reports whether the gate passes.
func (d *Diff) Ok() bool { return len(d.Regressions) == 0 }

// Render produces the full report text.
func (d *Diff) Render() string {
	var b strings.Builder
	for _, l := range d.Lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	if len(d.Notes) > 0 {
		b.WriteString("notes:\n")
		for _, n := range d.Notes {
			b.WriteString("  " + n + "\n")
		}
	}
	if len(d.Regressions) > 0 {
		fmt.Fprintf(&b, "REGRESSIONS (%d):\n", len(d.Regressions))
		for _, r := range d.Regressions {
			b.WriteString("  " + r + "\n")
		}
	} else {
		b.WriteString("no regressions\n")
	}
	return b.String()
}

// matrixOrder fixes the rendering order of the report's matrices; any
// other matrix follows in name order.
var matrixOrder = []string{"windows_jbytemark", "windows_specjvm98", "aix_jbytemark", "aix_specjvm98"}

// DiffReports compares two benchtab -json documents (old = baseline,
// new = candidate) and returns the rendered comparison plus the gating
// verdict. The report kind — the paper sweep, or a -tier / -degradation
// policy sweep — is read from generated_by, and both documents must be of
// the same kind. The comparison walks the baseline's cell order, so the
// output is deterministic for the same pair of inputs.
func DiffReports(oldData, newData []byte, opts DiffOptions) (*Diff, error) {
	oldHead, newHead, err := decodePair[struct {
		GeneratedBy string `json:"generated_by"`
	}](oldData, newData)
	if err != nil {
		return nil, err
	}
	if oldHead.GeneratedBy != newHead.GeneratedBy {
		return nil, fmt.Errorf("baseline was generated by %q, candidate by %q",
			oldHead.GeneratedBy, newHead.GeneratedBy)
	}
	d := &Diff{}
	for _, k := range []*policyKind{tierKind, degradationKind} {
		if oldHead.GeneratedBy != "trapnull benchtab "+k.flag {
			continue
		}
		oldRep, newRep, err := decodePair[struct {
			Matrices map[string][]jsonPolicyDiffCell `json:"matrices"`
		}](oldData, newData)
		if err != nil {
			return nil, err
		}
		diffMatrices(d, oldRep.Matrices, newRep.Matrices,
			func(c *jsonPolicyDiffCell) string { return c.Policy + "/" + c.Workload },
			func(full, id string, oc, nc *jsonPolicyDiffCell) { d.diffPolicyCell(full, id, oc, nc, opts) })
		return d, nil
	}
	oldRep, newRep, err := decodePair[jsonReport](oldData, newData)
	if err != nil {
		return nil, err
	}
	diffMatrices(d, oldRep.Matrices, newRep.Matrices,
		func(c *jsonCell) string { return c.Config + "/" + c.Workload },
		func(full, id string, oc, nc *jsonCell) { d.diffCell(full, id, oc, nc, opts) })
	return d, nil
}

// decodePair unmarshals the baseline and candidate documents as R.
func decodePair[R any](oldData, newData []byte) (oldRep, newRep R, err error) {
	if err = json.Unmarshal(oldData, &oldRep); err != nil {
		return oldRep, newRep, fmt.Errorf("baseline: %w", err)
	}
	if err = json.Unmarshal(newData, &newRep); err != nil {
		return oldRep, newRep, fmt.Errorf("candidate: %w", err)
	}
	return oldRep, newRep, nil
}

// diffMatrices walks the baseline's matrices (matrixOrder first) and cells,
// pairing each cell with the candidate's cell of the same id; a cell the
// candidate lacks gates, and cell compares every pair.
func diffMatrices[C any](d *Diff, oldM, newM map[string][]C, id func(*C) string, cell func(full, id string, oc, nc *C)) {
	var rest []string
	for name := range oldM {
		if !slices.Contains(matrixOrder, name) {
			rest = append(rest, name)
		}
	}
	sort.Strings(rest)
	for _, name := range append(slices.Clone(matrixOrder), rest...) {
		oldCells, inOld := oldM[name]
		newCells, inNew := newM[name]
		if !inOld && !inNew {
			continue
		}
		d.Lines = append(d.Lines, "matrix "+name)
		if !inNew {
			d.Regressions = append(d.Regressions, name+": matrix missing from candidate")
			continue
		}
		if !inOld {
			d.Notes = append(d.Notes, name+": matrix new in candidate (no baseline)")
			continue
		}
		index := make(map[string]*C, len(newCells))
		for i := range newCells {
			index[id(&newCells[i])] = &newCells[i]
		}
		seen := make(map[string]bool, len(oldCells))
		for i := range oldCells {
			cid := id(&oldCells[i])
			seen[cid] = true
			if nc := index[cid]; nc != nil {
				cell(name+"/"+cid, cid, &oldCells[i], nc)
			} else {
				d.Lines = append(d.Lines, fmt.Sprintf("  %-44s MISSING from candidate", cid))
				d.Regressions = append(d.Regressions, name+"/"+cid+": cell missing from candidate")
			}
		}
		for i := range newCells {
			if cid := id(&newCells[i]); !seen[cid] {
				d.Notes = append(d.Notes, name+"/"+cid+": new cell (no baseline)")
			}
		}
	}
}

// cellErrors handles a pair where either side is an error cell, and reports
// whether it did; only a healthy pair is compared further.
func (d *Diff) cellErrors(full, id string, oldErr, newErr string) bool {
	switch {
	case oldErr != "" && newErr != "":
		d.Lines = append(d.Lines, fmt.Sprintf("  %-44s ERROR in both (%s | %s)", id, oldErr, newErr))
	case newErr != "":
		d.Lines = append(d.Lines, fmt.Sprintf("  %-44s ERROR(%s), baseline was healthy", id, newErr))
		d.Regressions = append(d.Regressions, full+": now fails: "+newErr)
	case oldErr != "":
		d.Lines = append(d.Lines, fmt.Sprintf("  %-44s fixed (baseline ERROR(%s))", id, oldErr))
		d.Notes = append(d.Notes, full+": baseline error cell now healthy")
	default:
		return false
	}
	return true
}

// gateCycles compares one simulated cycle count: a rise beyond the
// tolerance gates, a drop is a note. It returns the rendered comparison.
func (d *Diff) gateCycles(full, what string, oldC, newC int64, opts DiffOptions) string {
	deltaPct := 0.0
	if oldC != 0 {
		deltaPct = (float64(newC) - float64(oldC)) / float64(oldC) * 100
	}
	verdict := ""
	switch {
	case deltaPct > opts.CyclesTolerancePct:
		verdict = "  REGRESS"
		d.Regressions = append(d.Regressions,
			fmt.Sprintf("%s: %s %d -> %d (%+.2f%%, tolerance %.2f%%)",
				full, what, oldC, newC, deltaPct, opts.CyclesTolerancePct))
	case newC < oldC:
		d.Notes = append(d.Notes, fmt.Sprintf("%s: %s improved %d -> %d (%+.2f%%)",
			full, what, oldC, newC, deltaPct))
	}
	return fmt.Sprintf("%s %12d -> %12d  %+7.2f%%%s", what, oldC, newC, deltaPct, verdict)
}

// diffCell compares one baseline cell against its candidate.
func (d *Diff) diffCell(full, id string, oc, nc *jsonCell, opts DiffOptions) {
	if d.cellErrors(full, id, oc.Error, nc.Error) {
		return
	}
	d.Lines = append(d.Lines, fmt.Sprintf("  %-44s %s", id, d.gateCycles(full, "cycles", oc.Cycles, nc.Cycles, opts)))

	// Dynamic counters and static check statistics are deterministic: any
	// drift is a behavioral change worth a note even when cycles pass.
	if oc.TrapsTaken != nc.TrapsTaken || oc.ExplicitChecks != nc.ExplicitChecks ||
		oc.ImplicitSites != nc.ImplicitSites {
		d.Notes = append(d.Notes, fmt.Sprintf(
			"%s: dynamic checks changed (traps %d->%d, explicit %d->%d, implicit %d->%d)",
			full, oc.TrapsTaken, nc.TrapsTaken, oc.ExplicitChecks, nc.ExplicitChecks,
			oc.ImplicitSites, nc.ImplicitSites))
	}
	if oc.StaticImplicit != nc.StaticImplicit || oc.StaticExplicit != nc.StaticExplicit ||
		oc.Eliminated != nc.Eliminated {
		d.Notes = append(d.Notes, fmt.Sprintf(
			"%s: static checks changed (implicit %d->%d, explicit-left %d->%d, eliminated %d->%d)",
			full, oc.StaticImplicit, nc.StaticImplicit, oc.StaticExplicit, nc.StaticExplicit,
			oc.Eliminated, nc.Eliminated))
	}
	if oc.Fates != nil && nc.Fates != nil && !reflect.DeepEqual(oc.Fates, nc.Fates) {
		msg := full + ": check-fate histogram changed"
		if opts.StrictFates {
			d.Regressions = append(d.Regressions, msg)
		} else {
			d.Notes = append(d.Notes, msg)
		}
	}
}

// jsonPolicyDiffCell is what the gate reads of a -tier or -degradation
// cell; fields of the other sweep's shape stay zero on both sides.
type jsonPolicyDiffCell struct {
	Workload      string `json:"workload"`
	Policy        string `json:"policy"`
	FirstCycles   int64  `json:"first_cycles"`
	SteadyCycles  int64  `json:"steady_cycles"`
	CompileToPeak int64  `json:"compile_to_peak_us"`
	PromotionsT1  int    `json:"promotions_t1"`
	PromotionsT2  int    `json:"promotions_t2"`
	Deopts        int    `json:"deopts"`
	Demotions     int    `json:"demotions"`
	Recompiles    int    `json:"recompiles"`
	Pinned        int    `json:"pinned"`
	// Events is the cell's decision log as exported, compared as JSON.
	Events json.RawMessage `json:"events,omitempty"`
	Error  string          `json:"error,omitempty"`
}

// diffPolicyCell compares one policy-sweep cell. Steady and first cycles
// gate under the cycle tolerance; the adaptive decisions (promotions,
// deopts, demotions, recompiles, pins, and the events that log them) are
// deterministic and gate on any change; compile-to-peak is host time and is
// only reported.
func (d *Diff) diffPolicyCell(full, id string, oc, nc *jsonPolicyDiffCell, opts DiffOptions) {
	if d.cellErrors(full, id, oc.Error, nc.Error) {
		return
	}
	d.Lines = append(d.Lines,
		fmt.Sprintf("  %-44s %s", id, d.gateCycles(full, "steady cycles", oc.SteadyCycles, nc.SteadyCycles, opts)),
		fmt.Sprintf("  %-44s %s", "", d.gateCycles(full, "first cycles ", oc.FirstCycles, nc.FirstCycles, opts)),
		fmt.Sprintf("  %-44s compile-to-peak %9dus -> %9dus  (host time, not gated)", "", oc.CompileToPeak, nc.CompileToPeak))
	for _, f := range []struct {
		name     string
		old, new int
	}{
		{"promotions_t1", oc.PromotionsT1, nc.PromotionsT1},
		{"promotions_t2", oc.PromotionsT2, nc.PromotionsT2},
		{"deopts", oc.Deopts, nc.Deopts},
		{"demotions", oc.Demotions, nc.Demotions},
		{"recompiles", oc.Recompiles, nc.Recompiles},
		{"pinned", oc.Pinned, nc.Pinned},
	} {
		if f.old != f.new {
			d.Regressions = append(d.Regressions, fmt.Sprintf("%s: %s %d -> %d", full, f.name, f.old, f.new))
		}
	}
	if old, new := compactJSON(oc.Events), compactJSON(nc.Events); old != new {
		d.Regressions = append(d.Regressions, fmt.Sprintf("%s: events %s -> %s", full, old, new))
	}
}

// compactJSON is raw JSON without insignificant whitespace, so reports
// compare by content however they are indented.
func compactJSON(raw json.RawMessage) string {
	var b bytes.Buffer
	// raw came out of a decoded report: valid JSON, or empty (and then
	// compacted to "") when the cell exports no events.
	_ = json.Compact(&b, raw)
	return b.String()
}
