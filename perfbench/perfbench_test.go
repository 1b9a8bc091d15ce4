package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"

	"trapnull/internal/jit"
)

// spec is the part of ../BENCHMARK.json the tests check against.
type spec struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func (s spec) bound(t *testing.T, name string) float64 {
	for _, m := range s.EndToEnd {
		if m.Name == name {
			return m.Bound
		}
	}
	t.Fatalf("BENCHMARK.json has no end-to-end metric %s", name)
	return 0
}

func setUp(t *testing.T, name string, quick bool) workload {
	t.Helper()
	wl, err := newWorkload(name, 3, quick)
	if err != nil {
		t.Fatal(err)
	}
	if err := wl.setup(); err != nil {
		t.Fatal(err)
	}
	return wl
}

// fingerprint is everything about a pass that must not depend on timing
// or tracing (IR sizes are only counted when tracing).
func fingerprint(tl *tally) string {
	static := tl.static
	static.Times = jit.Times{}
	return strings.Join([]string{
		jsonOf(tl.exec), jsonOf(static),
		jsonOf([]int64{tl.attempted, tl.failed, tl.simCycles, tl.cacheHits, tl.cacheMisses,
			tl.closureInstrs, tl.switchInstrs,
			tl.promotions, tl.deopts, tl.osr, tl.demotions, tl.recompiles}),
	}, " ")
}

func jsonOf(v any) string {
	b, _ := json.Marshal(v)
	return string(b)
}

// Two runs of a workload — separately set up, one traced and one not —
// count exactly the same simulated cycles, machine events, compile-side
// statistics and cache traffic, and every operation is correct.
func TestRunsAreDeterministic(t *testing.T) {
	for _, name := range []string{"paper-sweep", "compile-cold", "adaptive-storm"} {
		t.Run(name, func(t *testing.T) {
			var prints []string
			for _, tracing := range []bool{false, true} {
				tl := onePass(setUp(t, name, true), newProbe(tracing)).t
				if tl.failed != 0 || tl.attempted == 0 {
					t.Fatalf("tracing=%v: %d of %d operations failed: %v", tracing, tl.failed, tl.attempted, tl.failures)
				}
				if tl.simCycles == 0 || tl.exec.Instrs == 0 {
					t.Fatalf("tracing=%v: pass simulated nothing", tracing)
				}
				prints = append(prints, fingerprint(tl))
			}
			if prints[0] != prints[1] {
				t.Fatalf("runs differ:\n%s\n%s", prints[0], prints[1])
			}
		})
	}
}

// The traced compile-cold run only counts when the pass replica reproduces
// jit.CompileProgram exactly; and the check would catch a replica that
// dropped a pass.
func TestPassReplicaMatchesPipeline(t *testing.T) {
	cc := setUp(t, "compile-cold", true).(*compileCold)
	if err := cc.checkReplica(); err != nil {
		t.Fatal(err)
	}
	caught := false
	p := newProbe(false)
	for _, c := range cc.cells {
		want, _ := c.generate(p)
		if _, err := jit.CompileProgram(want, c.cfg, c.model); err != nil {
			t.Fatal(err)
		}
		got, _ := c.generate(p)
		passes := replicaPipeline(c.cfg, c.model)
		res := &jit.Result{}
		// Drop the third pass: the first null-check pass, or copy
		// propagation where no null-check pass runs.
		if err := replicaMethods(p, got, c.cfg, c.model, append(passes[:2:2], passes[3:]...), res); err == nil &&
			dumpProgram(got) != dumpProgram(want) {
			caught = true
			break
		}
	}
	if !caught {
		t.Fatal("a replica with a pass missing printed the same IR as jit.CompileProgram on every cell")
	}
}

// slowdowns runs rounds of passes, one per planted setting after a pass
// with nothing planted, and returns each setting's median wall-time ratio to
// the unplanted pass of its round, minus one. Pairing within a round cancels
// drift in host speed.
func slowdowns(wl workload, settings []func(*probe), rounds int) []float64 {
	ratios := make([][]float64, len(settings))
	for r := 0; r < rounds; r++ {
		base := onePass(wl, newProbe(false)).wall.Seconds()
		for i, plant := range settings {
			p := newProbe(false)
			plant(p)
			ratios[i] = append(ratios[i], onePass(wl, p).wall.Seconds()/base-1)
		}
	}
	out := make([]float64, len(settings))
	for i, rs := range ratios {
		out[i] = median(rs)
	}
	return out
}

// A layer made 75% slower by a delay planted in the benchmark's own
// timing wrapper moves wall_s by more than its bound on the workload that
// exercises the layer, and by less than the bound on the one that does not:
// paper-sweep is bound by machine.Call, compile-cold by
// jit.CompileProgramWith.
func TestWorkloadsSeparateLayers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full-size passes")
	}
	bound := loadSpec(t).bound(t, "wall_s")
	slowMachine := func(p *probe) {
		p.slow[spCallClosure], p.slow[spCallSwitch], p.slow[spCallTiered] = 0.75, 0.75, 0.75
	}
	slowCompile := func(p *probe) { p.slow[spCompile] = 0.75 }
	moves := map[string][2]bool{ // workload → does {machine, compile} move wall_s
		"paper-sweep":  {true, false},
		"compile-cold": {false, true},
	}
	for _, name := range []string{"paper-sweep", "compile-cold"} {
		changes := slowdowns(setUp(t, name, false), []func(*probe){slowMachine, slowCompile}, 5)
		for i, layer := range []string{"machine.Call", "jit.CompileProgramWith"} {
			change := changes[i]
			t.Logf("%s: slower %s moves wall_s by %+.1f%% (bound %.0f%%)", name, layer, 100*change, 100*bound)
			if moved := change > bound; moved != moves[name][i] {
				t.Errorf("%s: slower %s moved wall_s by %+.1f%%, want moved=%v against bound %.0f%%",
					name, layer, 100*change, moves[name][i], 100*bound)
			}
		}
	}
}

// A whole run prints exactly the metrics BENCHMARK.json declares, and a
// JSON summary as its last line.
func TestOutputMatchesSpec(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark end to end")
	}
	s := loadSpec(t)
	var e2e, layer []string
	for _, m := range s.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range s.PerLayer {
		layer = append(layer, m.Name)
	}
	for trace, want := range map[string][]string{"0": e2e, "1": layer} {
		var out, errOut bytes.Buffer
		code := benchMain([]string{"--workload", "adaptive-storm", "--seed", "5", "--seconds", "1", "--trace", trace}, &out, &errOut)
		if code != 0 {
			t.Fatalf("trace %s: exit %d: %s", trace, code, errOut.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var last struct {
			Correct   bool                       `json:"correct"`
			Attempted int64                      `json:"attempted"`
			Failed    int64                      `json:"failed"`
			Metrics   map[string]json.RawMessage `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatalf("trace %s: last line is not the summary: %v", trace, err)
		}
		if !last.Correct || last.Failed != 0 || last.Attempted == 0 {
			t.Fatalf("trace %s: run not correct: %s", trace, out.String())
		}
		var got []string
		for name := range last.Metrics {
			got = append(got, name)
		}
		sort.Strings(got)
		sort.Strings(want)
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("trace %s: metrics\n%v\nwant\n%v", trace, got, want)
		}
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := benchMain([]string{"--workload", "nope"}, &out, &errOut); code == 0 || out.Len() != 0 {
		t.Fatalf("exit %d, stdout %q", code, out.String())
	}
}
