package bench

import (
	"bytes"
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

// TestFateConservation is the taxonomy-exhaustiveness contract: for every
// workload × configuration × architecture, every source-IR null check must
// end with exactly one terminal fate — no losses, no double reports. A
// FateLost or a conflict means a pass deleted or moved a check through an
// uninstrumented path.
func TestFateConservation(t *testing.T) {
	combos := []struct {
		model   *arch.Model
		configs []jit.Config
	}{
		{arch.IA32Win(), jit.WindowsConfigs()},
		{arch.PPCAIX(), jit.AIXConfigs()},
	}
	suites := [][]*workloads.Workload{workloads.JBYTEmark(), workloads.SPECjvm98()}
	for _, combo := range combos {
		for _, cfg := range combo.configs {
			for _, suite := range suites {
				for _, w := range suite {
					prog, _ := w.Build()
					want := 0
					for _, m := range prog.Methods {
						if m.Fn != nil {
							want += m.Fn.CountOp(ir.OpNullCheck)
						}
					}
					rem := obs.NewRemarks()
					if _, err := jit.CompileProgramWith(prog, cfg, combo.model, jit.CompileOptions{Observer: &jit.Observer{Remarks: rem}}); err != nil {
						t.Fatalf("%s/%s on %s: compile: %v", cfg.Name, w.Name, combo.model.Name, err)
					}
					tot := rem.Totals()
					label := cfg.Name + "/" + w.Name + " on " + combo.model.Name
					if tot.Source != want {
						t.Errorf("%s: ledger saw %d source checks, source IR has %d", label, tot.Source, want)
					}
					if !tot.Conserved() {
						t.Errorf("%s: fates do not conserve: tracked=%d fated=%d lost=%d (%+v)",
							label, tot.Tracked(), tot.Fated(), tot.Lost, tot)
					}
					if n := rem.Conflicts(); n != 0 {
						t.Errorf("%s: %d double-fate conflicts", label, n)
					}
				}
			}
		}
	}
}

// TestObsEquivalence is the zero-interference contract: a sweep with the
// whole observability layer on (tracing + remarks + profiling) must produce
// exactly the simulated measurements of a sweep with it off. Only host-clock
// compile durations may differ, so the comparison covers the timing-free
// artifacts plus per-cell cycles and event counts. ci.sh re-runs this test
// under TRAPNULL_ENGINE=switch so both engines are held to it.
func TestObsEquivalence(t *testing.T) {
	off, err := RunAll(Options{Quick: true, Parallelism: 4})
	if err != nil {
		t.Fatalf("obs-off sweep: %v", err)
	}
	on, err := RunAll(Options{Quick: true, Parallelism: 4,
		Trace: obs.NewTrace(), Remarks: true, Profile: true})
	if err != nil {
		t.Fatalf("obs-on sweep: %v", err)
	}

	offArts, onArts := off.Artifacts(), on.Artifacts()
	for _, name := range timingFreeArtifacts {
		if o, n := offArts[name](), onArts[name](); o != n {
			t.Errorf("%s differs with observability on:\n--- off ---\n%s\n--- on ---\n%s", name, o, n)
		}
	}
	pairs := []struct {
		name   string
		off, o *Matrix
	}{
		{"WinJB", off.WinJB, on.WinJB},
		{"WinSpec", off.WinSpec, on.WinSpec},
		{"AIXJB", off.AIXJB, on.AIXJB},
		{"AIXSpec", off.AIXSpec, on.AIXSpec},
	}
	for _, pr := range pairs {
		for _, cfg := range pr.off.Configs {
			for _, w := range pr.off.Workloads {
				oc, nc := pr.off.Cell(cfg.Name, w.Name), pr.o.Cell(cfg.Name, w.Name)
				if oc == nil || nc == nil {
					t.Fatalf("%s %s/%s: missing cell", pr.name, cfg.Name, w.Name)
				}
				if oc.Cycles != nc.Cycles || oc.Exec != nc.Exec {
					t.Errorf("%s %s/%s: observed run measured differently: cycles %d vs %d, exec %+v vs %+v",
						pr.name, cfg.Name, w.Name, oc.Cycles, nc.Cycles, oc.Exec, nc.Exec)
				}
				if nc.Fates == nil && !nc.Failed() {
					t.Errorf("%s %s/%s: obs-on cell has no fate histogram", pr.name, cfg.Name, w.Name)
				}
				if nc.Profile == nil && !nc.Failed() {
					t.Errorf("%s %s/%s: obs-on cell has no profile summary", pr.name, cfg.Name, w.Name)
				}
			}
		}
	}

	// The obs JSON fields must serialize deterministically: two marshals of
	// the same report are byte-identical (no map iteration anywhere).
	j1, err := on.JSON()
	if err != nil {
		t.Fatalf("JSON: %v", err)
	}
	j2, err := on.JSON()
	if err != nil {
		t.Fatalf("JSON: %v", err)
	}
	if !bytes.Equal(j1, j2) {
		t.Error("two marshals of the same obs-on report differ")
	}
	for _, want := range []string{`"check_fates"`, `"profile"`, `"hot_blocks"`} {
		if !strings.Contains(string(j1), want) {
			t.Errorf("obs-on JSON is missing %s", want)
		}
	}
	// Obs-off JSON must not grow the new fields at all.
	jOff, err := off.JSON()
	if err != nil {
		t.Fatalf("JSON: %v", err)
	}
	for _, reject := range []string{`"check_fates"`, `"profile"`} {
		if strings.Contains(string(jOff), reject) {
			t.Errorf("obs-off JSON contains %s; the fields must be omitted when the layer is off", reject)
		}
	}
}

// obsTrial measures one compile+run of the Assignment workload, fully
// observed or fully unobserved.
func obsTrial(t *testing.T, observed bool) time.Duration {
	t.Helper()
	w, err := workloads.ByName("Assignment")
	if err != nil {
		t.Fatal(err)
	}
	cfg := jit.ConfigPhase1Phase2()
	model := arch.IA32Win()

	start := time.Now()
	prog, entry := w.Build()
	var ob *jit.Observer
	if observed {
		tr := obs.NewTrace()
		ob = &jit.Observer{Trace: tr, TID: tr.NextTID(), Remarks: obs.NewRemarks()}
	}
	if _, err := jit.CompileProgramWith(prog, cfg, model, jit.CompileOptions{Observer: ob}); err != nil {
		t.Fatal(err)
	}
	m := machine.New(model, prog)
	if observed {
		m.Profile = obs.NewExecProfile()
	}
	if _, err := m.Call(entry.Fn, 20); err != nil {
		t.Fatal(err)
	}
	return time.Since(start)
}

// TestObsOverheadBudget pins the enabled-overhead acceptance criterion:
// compile+run with tracing, remarks and profiling all on must stay within
// 1.15x of the unobserved path. Host timing is noisy, so the test takes the
// best of several paired trials — it fails only if the overhead exceeds the
// budget on every attempt.
func TestObsOverheadBudget(t *testing.T) {
	const trials = 5
	const budget = 1.15
	obsTrial(t, false) // warm up caches and the JIT's allocation pools
	best := 0.0
	for i := 0; i < trials; i++ {
		off := obsTrial(t, false)
		on := obsTrial(t, true)
		ratio := float64(on) / float64(off)
		if i == 0 || ratio < best {
			best = ratio
		}
		if ratio <= budget {
			return
		}
	}
	t.Errorf("observability overhead %.3fx exceeds %.2fx budget in all %d trials", best, budget, trials)
}

// BenchmarkObsOff and BenchmarkObsOn make the overhead measurable with
// `go test -bench Obs -benchtime 10x ./internal/bench`.
func BenchmarkObsOff(b *testing.B) { benchObs(b, false) }
func BenchmarkObsOn(b *testing.B)  { benchObs(b, true) }

func benchObs(b *testing.B, observed bool) {
	w, err := workloads.ByName("Assignment")
	if err != nil {
		b.Fatal(err)
	}
	var cfg jit.Config
	for _, c := range jit.WindowsConfigs() {
		if c.Name == "NewNullCheck(Phase1+2)" {
			cfg = c
		}
	}
	model := arch.IA32Win()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prog, entry := w.Build()
		var ob *jit.Observer
		if observed {
			tr := obs.NewTrace()
			ob = &jit.Observer{Trace: tr, TID: tr.NextTID(), Remarks: obs.NewRemarks()}
		}
		if _, err := jit.CompileProgramWith(prog, cfg, model, jit.CompileOptions{Observer: ob}); err != nil {
			b.Fatal(err)
		}
		m := machine.New(model, prog)
		if observed {
			m.Profile = obs.NewExecProfile()
		}
		if _, err := m.Call(entry.Fn, 20); err != nil {
			b.Fatal(err)
		}
	}
}

// TestParallelObsDeterminism extends the parallelism contract to the obs
// artifacts: fate histograms and profile summaries must be identical between
// a serial and a 4-worker sweep.
func TestParallelObsDeterminism(t *testing.T) {
	serial, err := RunAll(Options{Quick: true, Parallelism: 1, Remarks: true, Profile: true})
	if err != nil {
		t.Fatalf("serial sweep: %v", err)
	}
	parallel, err := RunAll(Options{Quick: true, Parallelism: 4, Remarks: true, Profile: true})
	if err != nil {
		t.Fatalf("parallel sweep: %v", err)
	}
	pairs := []struct {
		name string
		s, p *Matrix
	}{
		{"WinJB", serial.WinJB, parallel.WinJB},
		{"WinSpec", serial.WinSpec, parallel.WinSpec},
		{"AIXJB", serial.AIXJB, parallel.AIXJB},
		{"AIXSpec", serial.AIXSpec, parallel.AIXSpec},
	}
	for _, pr := range pairs {
		for _, cfg := range pr.s.Configs {
			for _, w := range pr.s.Workloads {
				sc, pc := pr.s.Cell(cfg.Name, w.Name), pr.p.Cell(cfg.Name, w.Name)
				if sc == nil || pc == nil {
					t.Fatalf("%s %s/%s: missing cell", pr.name, cfg.Name, w.Name)
				}
				if !reflect.DeepEqual(sc.Fates, pc.Fates) {
					t.Errorf("%s %s/%s: fate histograms differ by worker count:\nserial   %+v\nparallel %+v",
						pr.name, cfg.Name, w.Name, sc.Fates, pc.Fates)
				}
				if !reflect.DeepEqual(sc.Profile, pc.Profile) {
					t.Errorf("%s %s/%s: profile summaries differ by worker count:\nserial   %+v\nparallel %+v",
						pr.name, cfg.Name, w.Name, sc.Profile, pc.Profile)
				}
			}
		}
	}
}
