package trapnull

// One testing.B benchmark per table and figure of the paper's evaluation
// (§5). Each benchmark regenerates its artifact from the simulated machines
// at the quick problem sizes and reports the headline metric the paper
// draws from it, so `go test -bench=.` doubles as a shape regression suite.
//
// Full-size runs (the numbers recorded in EXPERIMENTS.md) come from
// `go run ./cmd/benchtab -all`.

import (
	"sync"
	"testing"

	"trapnull/internal/arch"
	"trapnull/internal/bench"
	"trapnull/internal/jit"
	"trapnull/internal/machine"
	"trapnull/internal/workloads"
)

var (
	reportOnce sync.Once
	report     *bench.Report
	reportErr  error
)

// sharedReport runs the full sweep once per process; individual benchmarks
// re-render their artifact from it per iteration, so the per-table benches
// measure artifact generation while the metrics come from real runs.
func sharedReport(b *testing.B) *bench.Report {
	b.Helper()
	reportOnce.Do(func() {
		report, reportErr = bench.RunAll(bench.Options{Quick: true})
	})
	if reportErr != nil {
		b.Fatalf("bench sweep failed: %v", reportErr)
	}
	return report
}

// improvementOf recomputes a cycle-level improvement percentage.
func improvementOf(m *bench.Matrix, base, cfg, workload string) float64 {
	bc := m.Cell(base, workload)
	cc := m.Cell(cfg, workload)
	return (float64(bc.Cycles)/float64(cc.Cycles) - 1) * 100
}

func BenchmarkTable1JBYTEmark(b *testing.B) {
	r := sharedReport(b)
	for i := 0; i < b.N; i++ {
		if len(r.Table1()) == 0 {
			b.Fatal("empty table")
		}
	}
	b.ReportMetric(improvementOf(r.WinJB, "NoNullOpt(NoTrap)", "NewNullCheck(Phase1+2)", "Assignment"),
		"assignment_gain_%")
}

func BenchmarkFigure8Improvement(b *testing.B) {
	r := sharedReport(b)
	for i := 0; i < b.N; i++ {
		if len(r.Figure8()) == 0 {
			b.Fatal("empty figure")
		}
	}
	b.ReportMetric(improvementOf(r.WinJB, "NoNullOpt(NoTrap)", "NewNullCheck(Phase1+2)", "LUDecomposition"),
		"lu_gain_%")
}

func BenchmarkTable2SPECjvm98(b *testing.B) {
	r := sharedReport(b)
	for i := 0; i < b.N; i++ {
		if len(r.Table2()) == 0 {
			b.Fatal("empty table")
		}
	}
	b.ReportMetric(r.WinSpec.Cell("NewNullCheck(Phase1+2)", "MTRT").SimMillis(), "mtrt_sim_ms")
}

func BenchmarkFigure9Improvement(b *testing.B) {
	r := sharedReport(b)
	for i := 0; i < b.N; i++ {
		if len(r.Figure9()) == 0 {
			b.Fatal("empty figure")
		}
	}
	b.ReportMetric(improvementOf(r.WinSpec, "NewNullCheck(Phase1)", "NewNullCheck(Phase1+2)", "MTRT"),
		"mtrt_phase2_gain_%")
}

func BenchmarkFigure10VsHotSpotJB(b *testing.B) {
	r := sharedReport(b)
	for i := 0; i < b.N; i++ {
		if len(r.Figure10()) == 0 {
			b.Fatal("empty figure")
		}
	}
	sum := 0.0
	for _, w := range r.WinJB.Workloads {
		sum += improvementOf(r.WinJB, "HotSpotSim", "NewNullCheck(Phase1+2)", w.Name)
	}
	b.ReportMetric(sum/float64(len(r.WinJB.Workloads)), "avg_vs_hotspot_%")
}

func BenchmarkFigure11VsHotSpotSpec(b *testing.B) {
	r := sharedReport(b)
	for i := 0; i < b.N; i++ {
		if len(r.Figure11()) == 0 {
			b.Fatal("empty figure")
		}
	}
	sum := 0.0
	for _, w := range r.WinSpec.Workloads {
		sum += improvementOf(r.WinSpec, "HotSpotSim", "NewNullCheck(Phase1+2)", w.Name)
	}
	b.ReportMetric(sum/float64(len(r.WinSpec.Workloads)), "avg_vs_hotspot_%")
}

func BenchmarkTable3CompilationTime(b *testing.B) {
	r := sharedReport(b)
	for i := 0; i < b.N; i++ {
		if len(r.Table3()) == 0 {
			b.Fatal("empty table")
		}
	}
	c := r.WinSpec.Cell("NewNullCheck(Phase1+2)", "Javac")
	b.ReportMetric(float64(c.CompileTotal().Microseconds())/1000, "javac_compile_ms")
}

func BenchmarkFigure12CompileRatio(b *testing.B) {
	r := sharedReport(b)
	for i := 0; i < b.N; i++ {
		if len(r.Figure12()) == 0 {
			b.Fatal("empty figure")
		}
	}
}

func BenchmarkTable4Breakdown(b *testing.B) {
	r := sharedReport(b)
	for i := 0; i < b.N; i++ {
		if len(r.Table4()) == 0 {
			b.Fatal("empty table")
		}
	}
	newC := r.WinSpec.Cell("NewNullCheck(Phase1+2)", "MTRT")
	oldC := r.WinSpec.Cell("OldNullCheck", "MTRT")
	if o := oldC.CompileNull.Seconds(); o > 0 {
		b.ReportMetric(newC.CompileNull.Seconds()/o, "mtrt_new_vs_old_nullopt_x")
	}
}

func BenchmarkFigure13BreakdownChart(b *testing.B) {
	r := sharedReport(b)
	for i := 0; i < b.N; i++ {
		if len(r.Figure13()) == 0 {
			b.Fatal("empty figure")
		}
	}
}

func BenchmarkTable5CompileIncrease(b *testing.B) {
	r := sharedReport(b)
	for i := 0; i < b.N; i++ {
		if len(r.Table5()) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable6AIXJBYTEmark(b *testing.B) {
	r := sharedReport(b)
	for i := 0; i < b.N; i++ {
		if len(r.Table6()) == 0 {
			b.Fatal("empty table")
		}
	}
	b.ReportMetric(improvementOf(r.AIXJB, "NoSpeculation", "Speculation", "FPEmulation"),
		"fpemu_speculation_gain_%")
}

func BenchmarkFigure14AIXImprovement(b *testing.B) {
	r := sharedReport(b)
	for i := 0; i < b.N; i++ {
		if len(r.Figure14()) == 0 {
			b.Fatal("empty figure")
		}
	}
}

func BenchmarkTable7AIXSpec(b *testing.B) {
	r := sharedReport(b)
	for i := 0; i < b.N; i++ {
		if len(r.Table7()) == 0 {
			b.Fatal("empty table")
		}
	}
	b.ReportMetric(improvementOf(r.AIXSpec, "NoNullCheckOpt", "Speculation", "MTRT"),
		"mtrt_gain_%")
}

func BenchmarkFigure15AIXSpecImprovement(b *testing.B) {
	r := sharedReport(b)
	for i := 0; i < b.N; i++ {
		if len(r.Figure15()) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkEndToEndSweep measures the complete quick sweep — every workload
// under every configuration on both machines — the "how expensive is the
// whole experiment" number.
func BenchmarkEndToEndSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.RunAll(bench.Options{Quick: true})
		if err != nil {
			b.Fatal(err)
		}
		_ = r
	}
}

// BenchmarkExec measures pure execution (no compilation) of every workload
// under the Phase1+2 pipeline on ia32, per engine: the closure-compiled
// engine versus the reference switch interpreter on identical IR. Each
// iteration resets the heap and re-verifies the checksum, so the numbers can
// never come from a wrong-answer fast path.
func BenchmarkExec(b *testing.B) {
	for _, w := range append(workloads.JBYTEmark(), workloads.SPECjvm98()...) {
		for _, eng := range []machine.Engine{machine.EngineClosure, machine.EngineSwitch} {
			w, eng := w, eng
			b.Run(w.Name+"/"+eng.String(), func(b *testing.B) {
				model := arch.IA32Win()
				p, entryM := w.Build()
				if _, err := jit.CompileProgram(p, jit.ConfigPhase1Phase2(), model); err != nil {
					b.Fatal(err)
				}
				m := machine.New(model, p)
				m.Engine = eng
				want := w.Ref(w.TestN)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m.Heap.Reset()
					out, err := m.Call(entryM.Fn, w.TestN)
					if err != nil {
						b.Fatal(err)
					}
					if out.Value != want {
						b.Fatalf("checksum mismatch: got %d, want %d", out.Value, want)
					}
				}
			})
		}
	}
}
