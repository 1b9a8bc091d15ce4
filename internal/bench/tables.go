package bench

import (
	"fmt"
	"strings"
	"text/tabwriter"
)

// renderGrid formats a header row and value rows with aligned columns.
func renderGrid(title string, header []string, rows [][]string, footer ...string) string {
	var sb strings.Builder
	sb.WriteString(title)
	sb.WriteString("\n")
	tw := tabwriter.NewWriter(&sb, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(header, "\t"))
	for _, r := range rows {
		fmt.Fprintln(tw, strings.Join(r, "\t"))
	}
	tw.Flush()
	for _, f := range footer {
		sb.WriteString(f)
		sb.WriteString("\n")
	}
	return sb.String()
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// cellText renders one table cell: the metric for a measured cell, the
// deterministic ERROR(<reason>) text for a failed one, and MISSING for a
// cell the sweep never produced.
func cellText(c *Cell, metric func(*Cell) string) string {
	switch {
	case c == nil:
		return "MISSING"
	case c.Failed():
		return c.ErrText()
	default:
		return metric(c)
	}
}

// usable reports whether a cell carries a real measurement (non-nil and not
// an error entry); aggregating tables skip the others.
func usable(c *Cell) bool { return c != nil && !c.Failed() }

// workloadNames lists the matrix's workload column order.
func (m *Matrix) workloadNames() []string {
	names := make([]string, len(m.Workloads))
	for i, w := range m.Workloads {
		names[i] = w.Name
	}
	return names
}

// Table1 renders the jBYTEmark index table (paper Table 1; larger better).
func (r *Report) Table1() string {
	m := r.WinJB
	header := append([]string{"(index = runs/sim-sec)"}, m.workloadNames()...)
	var rows [][]string
	for _, cfg := range m.Configs {
		row := []string{cfg.Name}
		for _, w := range m.workloadNames() {
			row = append(row, cellText(m.Cell(cfg.Name, w), func(c *Cell) string { return f2(c.Index()) }))
		}
		rows = append(rows, row)
	}
	return renderGrid("Table 1. Performance for jBYTEmark on ia32-win (larger is better)",
		header, rows,
		"index = 1 / simulated seconds at 600 MHz; shapes, not absolute values, correspond to the paper")
}

// Table2 renders the SPECjvm98 time table (paper Table 2; smaller better).
func (r *Report) Table2() string {
	m := r.WinSpec
	header := append([]string{"(unit: sim ms)"}, m.workloadNames()...)
	var rows [][]string
	for _, cfg := range m.Configs {
		row := []string{cfg.Name}
		for _, w := range m.workloadNames() {
			row = append(row, cellText(m.Cell(cfg.Name, w), func(c *Cell) string { return f2(c.SimMillis()) }))
		}
		rows = append(rows, row)
	}
	return renderGrid("Table 2. Performance for SPECjvm98 on ia32-win (smaller is better)",
		header, rows,
		"simulated milliseconds at 600 MHz")
}

// improvement returns the % speedup of cfg over base on workload w
// (cycle-based, so it works for both index and time metrics).
func improvement(m *Matrix, base, cfg, w string) float64 {
	b := m.Cell(base, w)
	c := m.Cell(cfg, w)
	if !usable(c) || !usable(b) || c.Cycles == 0 {
		return 0
	}
	return (float64(b.Cycles)/float64(c.Cycles) - 1) * 100
}

// figureImprovement renders a %-improvement-over-baseline figure.
func figureImprovement(title string, m *Matrix, base string, configs []string) string {
	header := append([]string{"% improvement vs " + base}, m.workloadNames()...)
	var rows [][]string
	for _, cfg := range configs {
		row := []string{cfg}
		for _, w := range m.workloadNames() {
			row = append(row, f1(improvement(m, base, cfg, w)))
		}
		rows = append(rows, row)
	}
	return renderGrid(title, header, rows)
}

// Figure8 renders the jBYTEmark improvement chart (paper Figure 8).
func (r *Report) Figure8() string {
	return figureImprovement(
		"Figure 8. Improvement for jBYTEmark on ia32-win",
		r.WinJB, "NoNullOpt(NoTrap)",
		[]string{"NoNullOpt(Trap)", "OldNullCheck", "NewNullCheck(Phase1)", "NewNullCheck(Phase1+2)"})
}

// Figure9 renders the SPECjvm98 improvement chart (paper Figure 9).
func (r *Report) Figure9() string {
	return figureImprovement(
		"Figure 9. Improvement for SPECjvm98 on ia32-win",
		r.WinSpec, "NoNullOpt(NoTrap)",
		[]string{"NoNullOpt(Trap)", "OldNullCheck", "NewNullCheck(Phase1)", "NewNullCheck(Phase1+2)"})
}

// figureVersus renders ours-vs-comparator relative performance.
func figureVersus(title string, m *Matrix, ours, other string) string {
	header := append([]string{"% faster than " + other}, m.workloadNames()...)
	row := []string{ours}
	sum := 0.0
	for _, w := range m.workloadNames() {
		v := improvement(m, other, ours, w)
		sum += v
		row = append(row, f1(v))
	}
	avg := sum / float64(len(m.workloadNames()))
	return renderGrid(title, header, [][]string{row},
		fmt.Sprintf("average relative performance: %+.1f%%", avg))
}

// Figure10 renders the jBYTEmark ours-vs-HotSpotSim comparison (Figure 10).
func (r *Report) Figure10() string {
	return figureVersus("Figure 10. jBYTEmark: NewNullCheck(Phase1+2) vs HotSpotSim",
		r.WinJB, "NewNullCheck(Phase1+2)", "HotSpotSim")
}

// Figure11 renders the SPECjvm98 ours-vs-HotSpotSim comparison (Figure 11).
func (r *Report) Figure11() string {
	return figureVersus("Figure 11. SPECjvm98: NewNullCheck(Phase1+2) vs HotSpotSim",
		r.WinSpec, "NewNullCheck(Phase1+2)", "HotSpotSim")
}

// Table3 renders the compilation-time table (paper Table 3): first run =
// execution + compilation; best run = execution. Execution is simulated
// milliseconds, compilation real milliseconds of the respective pipeline —
// the mix is documented in EXPERIMENTS.md.
func (r *Report) Table3() string {
	m := r.WinSpec
	header := append([]string{"", "metric"}, m.workloadNames()...)
	var rows [][]string
	for _, cfg := range []string{"NewNullCheck(Phase1+2)", "HotSpotSim"} {
		label := "Our JIT"
		if cfg == "HotSpotSim" {
			label = "HotSpotSim"
		}
		first := []string{label, "first run (ms)"}
		bestR := []string{"", "best run (ms)"}
		comp := []string{"", "compile (ms, %first)"}
		for _, w := range m.workloadNames() {
			c := m.Cell(cfg, w)
			if !usable(c) {
				t := cellText(c, nil)
				first = append(first, t)
				bestR = append(bestR, t)
				comp = append(comp, t)
				continue
			}
			exec := c.SimMillis()
			cms := float64(c.CompileTotal().Microseconds()) / 1000
			first = append(first, f2(exec+cms))
			bestR = append(bestR, f2(exec))
			comp = append(comp, fmt.Sprintf("%.2f (%.1f%%)", cms, cms/(exec+cms)*100))
		}
		rows = append(rows, first, bestR, comp)
	}
	return renderGrid("Table 3. JIT compilation time, SPECjvm98 on ia32-win", header, rows,
		"execution in simulated ms; compilation in real host ms (see EXPERIMENTS.md on units)")
}

// Figure12 renders the compile/total ratio chart (paper Figure 12).
func (r *Report) Figure12() string {
	m := r.WinSpec
	header := append([]string{"% of first run"}, m.workloadNames()...)
	row := []string{"compilation"}
	for _, w := range m.workloadNames() {
		c := m.Cell("NewNullCheck(Phase1+2)", w)
		if !usable(c) {
			row = append(row, cellText(c, nil))
			continue
		}
		exec := c.SimMillis()
		cms := float64(c.CompileTotal().Microseconds()) / 1000
		row = append(row, f1(cms/(exec+cms)*100))
	}
	return renderGrid("Figure 12. Ratio of JIT compilation time to first run", header, [][]string{row})
}

// table4Groups mirrors the paper's grouping: small-compile benchmarks merge.
func (r *Report) table4Groups() []struct {
	Name  string
	Cells func(cfg string) []*Cell
} {
	spec := r.WinSpec
	jb := r.WinJB
	group := func(names ...string) func(cfg string) []*Cell {
		return func(cfg string) []*Cell {
			var out []*Cell
			for _, n := range names {
				out = append(out, spec.Cell(cfg, n))
			}
			return out
		}
	}
	jbAll := func(cfg string) []*Cell {
		var out []*Cell
		for _, w := range jb.workloadNames() {
			out = append(out, jb.Cell(cfg, w))
		}
		return out
	}
	return []struct {
		Name  string
		Cells func(cfg string) []*Cell
	}{
		{"mtrt", group("MTRT")},
		{"jess", group("Jess")},
		{"db+compress+mpegaudio", group("DB", "Compress", "MPEGAudio")},
		{"jack", group("Jack")},
		{"javac", group("Javac")},
		{"jBYTEmark", jbAll},
	}
}

// Table4 renders the compile-time breakdown (paper Table 4): null check
// optimization vs everything else, NEW vs OLD.
func (r *Report) Table4() string {
	header := []string{"group", "algo", "nullcheck (ms)", "others (ms)", "nullcheck %"}
	var rows [][]string
	for _, g := range r.table4Groups() {
		for _, v := range []struct{ label, cfg string }{
			{"NEW", "NewNullCheck(Phase1+2)"},
			{"OLD", "OldNullCheck"},
		} {
			var null, other float64
			for _, c := range g.Cells(v.cfg) {
				if !usable(c) {
					continue
				}
				null += float64(c.CompileNull.Microseconds()) / 1000
				other += float64(c.CompileOther.Microseconds()) / 1000
			}
			pct := 0.0
			if null+other > 0 {
				pct = null / (null + other) * 100
			}
			rows = append(rows, []string{g.Name, v.label, f2(null), f2(other), f1(pct)})
		}
	}
	return renderGrid("Table 4. Breakdown of JIT compilation time (real host ms)", header, rows)
}

// Figure13 renders the breakdown chart data (paper Figure 13): the NEW
// pipeline's total compile time relative to OLD, split by phase family.
func (r *Report) Figure13() string {
	header := []string{"group", "new/old nullcheck-opt time", "new/old total time"}
	var rows [][]string
	for _, g := range r.table4Groups() {
		sum := func(cfg string) (null, total float64) {
			for _, c := range g.Cells(cfg) {
				if !usable(c) {
					continue
				}
				null += float64(c.CompileNull.Microseconds()) / 1000
				total += float64(c.CompileTotal().Microseconds()) / 1000
			}
			return
		}
		nNew, tNew := sum("NewNullCheck(Phase1+2)")
		nOld, tOld := sum("OldNullCheck")
		ratioN, ratioT := 0.0, 0.0
		if nOld > 0 {
			ratioN = nNew / nOld
		}
		if tOld > 0 {
			ratioT = tNew / tOld
		}
		rows = append(rows, []string{g.Name, f2(ratioN) + "x", f2(ratioT) + "x"})
	}
	return renderGrid("Figure 13. New vs old null check optimization compile cost", header, rows,
		"paper: new null check opt ≈3x the old one; total ≈1.02x")
}

// Table5 renders the compile-time increase table (paper Table 5).
func (r *Report) Table5() string {
	header := []string{"group", "increase (ms)", "increase (%)"}
	var rows [][]string
	var totNew, totOld float64
	for _, g := range r.table4Groups() {
		var tNew, tOld float64
		for _, c := range g.Cells("NewNullCheck(Phase1+2)") {
			if usable(c) {
				tNew += float64(c.CompileTotal().Microseconds()) / 1000
			}
		}
		for _, c := range g.Cells("OldNullCheck") {
			if usable(c) {
				tOld += float64(c.CompileTotal().Microseconds()) / 1000
			}
		}
		totNew += tNew
		totOld += tOld
		pct := 0.0
		if tOld > 0 {
			pct = (tNew/tOld - 1) * 100
		}
		rows = append(rows, []string{g.Name, f2(tNew - tOld), f1(pct)})
	}
	avg := 0.0
	if totOld > 0 {
		avg = (totNew/totOld - 1) * 100
	}
	return renderGrid("Table 5. Increase in JIT compilation time (new vs old)", header, rows,
		fmt.Sprintf("overall increase: %.1f%% (paper: 2.3%% average)", avg))
}

// Table6 renders the AIX jBYTEmark table (paper Table 6; larger better).
func (r *Report) Table6() string {
	m := r.AIXJB
	header := append([]string{"(index = runs/sim-sec)"}, m.workloadNames()...)
	var rows [][]string
	for _, cfg := range m.Configs {
		row := []string{cfg.Name}
		for _, w := range m.workloadNames() {
			row = append(row, cellText(m.Cell(cfg.Name, w), func(c *Cell) string { return f2(c.Index()) }))
		}
		rows = append(rows, row)
	}
	return renderGrid("Table 6. Performance for jBYTEmark on ppc-aix (larger is better)",
		header, rows,
		"index = 1 / simulated seconds at 332 MHz")
}

// Table7 renders the AIX SPECjvm98 table (paper Table 7; smaller better).
func (r *Report) Table7() string {
	m := r.AIXSpec
	header := append([]string{"(unit: sim ms)"}, m.workloadNames()...)
	var rows [][]string
	for _, cfg := range m.Configs {
		row := []string{cfg.Name}
		for _, w := range m.workloadNames() {
			row = append(row, cellText(m.Cell(cfg.Name, w), func(c *Cell) string { return f2(c.SimMillis()) }))
		}
		rows = append(rows, row)
	}
	return renderGrid("Table 7. Performance for SPECjvm98 on ppc-aix (smaller is better)",
		header, rows)
}

// Figure14 renders the AIX jBYTEmark improvement chart (paper Figure 14).
func (r *Report) Figure14() string {
	return figureImprovement(
		"Figure 14. Improvement for jBYTEmark on ppc-aix",
		r.AIXJB, "NoNullCheckOpt",
		[]string{"Speculation", "NoSpeculation", "IllegalImplicit(NoSpec)"})
}

// Figure15 renders the AIX SPECjvm98 improvement chart (paper Figure 15).
func (r *Report) Figure15() string {
	return figureImprovement(
		"Figure 15. Improvement for SPECjvm98 on ppc-aix",
		r.AIXSpec, "NoNullCheckOpt",
		[]string{"Speculation", "NoSpeculation", "IllegalImplicit(NoSpec)"})
}

// Artifacts maps table/figure identifiers to their renderers.
func (r *Report) Artifacts() map[string]func() string {
	return map[string]func() string{
		"table1": r.Table1, "table2": r.Table2, "table3": r.Table3,
		"table4": r.Table4, "table5": r.Table5, "table6": r.Table6,
		"table7":  r.Table7,
		"figure8": r.Figure8, "figure9": r.Figure9, "figure10": r.Figure10,
		"figure11": r.Figure11, "figure12": r.Figure12, "figure13": r.Figure13,
		"figure14": r.Figure14, "figure15": r.Figure15,
	}
}

// ArtifactNames returns the identifiers in render order.
func ArtifactNames() []string {
	return []string{
		"table1", "figure8", "table2", "figure9", "figure10", "figure11",
		"table3", "figure12", "table4", "figure13", "table5",
		"table6", "figure14", "table7", "figure15",
	}
}
