package jit

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"trapnull/internal/arch"
	"trapnull/internal/ir"
	"trapnull/internal/nullcheck"
	"trapnull/internal/randprog"
	"trapnull/internal/workloads"
)

// scratchPrograms builds fresh copies of the 17 workloads and of a few
// randprog programs.
func scratchPrograms() []func() *ir.Program {
	var builds []func() *ir.Program
	for _, w := range workloads.All() {
		builds = append(builds, func() *ir.Program { p, _ := w.Build(); return p })
	}
	for seed := int64(1); seed <= 8; seed++ {
		builds = append(builds, func() *ir.Program { p, _ := randprog.Generate(randprog.DefaultConfig(seed)); return p })
	}
	return builds
}

// TestQuiescentPassesAllocateNothing: every pass takes its scratch from a
// pooled workspace, so a pass that leaves the function as it found it
// allocates nothing. Each program is compiled under every configuration on
// both models. Then every pass Figure 2's loop iterates, the lowering pass
// and cleanup rerun on a copy of each compiled function until they report no
// change; the quiescent rerun, and CheckGuards on the compiled function,
// must allocate nothing and leave the function as it was.
func TestQuiescentPassesAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops released workspaces at random")
	}
	quiescent := map[string]int{}
	for _, model := range []*arch.Model{arch.IA32Win(), arch.PPCAIX()} {
		for _, cfg := range AllConfigs() {
			for _, build := range scratchPrograms() {
				prog := build()
				if _, err := CompileProgram(prog, cfg, model); err != nil {
					t.Fatalf("%s/%s: %v", model.Name, cfg.Name, err)
				}
				for _, m := range prog.Methods {
					if m.Fn == nil {
						continue
					}
					checkQuiescentPasses(t, m.Fn, cfg, model, quiescent)
				}
			}
		}
	}
	t.Logf("quiescent reruns measured: %v", quiescent)
	for _, base := range []string{"whaley", "phase1", "copyprop", "constfold", "cse", "boundelim", "scalar", "dce",
		"phase2", "trapconvert", "trapfold", "cleanup", "guardcheck"} {
		if quiescent[base] == 0 {
			t.Errorf("pass %s never ran quiescent, so its allocations went unmeasured", base)
		}
	}
}

// checkQuiescentPasses reruns cfg's passes on copies of the compiled
// function f, as TestQuiescentPassesAllocateNothing describes, and counts
// the quiescent reruns it measured by pass.
func checkQuiescentPasses(t *testing.T, f *ir.Func, cfg Config, model *arch.Model, quiescent map[string]int) {
	t.Helper()
	seen := map[string]bool{}
	for _, p := range pipeline(cfg) {
		base, _, _ := strings.Cut(p.name, "#")
		if base == "inline" || base == "rotate" || seen[base] {
			continue
		}
		seen[base] = true
		g := f.Clone()
		res := &Result{Config: cfg}
		run := func() int {
			blocks := g.MaxBlockID()
			return p.run(g, res, model) + max(g.MaxBlockID()-blocks, 0)
		}
		changes := run()
		for i := 0; i < 3 && changes != 0; i++ {
			changes = run()
		}
		if changes != 0 {
			continue
		}
		before := g.String()
		if allocs := testing.AllocsPerRun(10, func() { run() }); allocs != 0 {
			t.Errorf("%s/%s %s: %v allocations per quiescent run, want 0", model.Name, cfg.Name, p.name, allocs)
		}
		if g.String() != before {
			t.Fatalf("%s/%s %s: a rerun reporting no change changed %s", model.Name, cfg.Name, p.name, g.Name)
		}
		quiescent[base]++
	}
	if cfg.SkipGuardCheck {
		return
	}
	var err error
	if allocs := testing.AllocsPerRun(10, func() { err = nullcheck.CheckGuards(f, model) }); allocs != 0 {
		t.Errorf("%s/%s: CheckGuards makes %v allocations per run, want 0", model.Name, cfg.Name, allocs)
	}
	if err != nil {
		t.Fatalf("%s/%s: %v", model.Name, cfg.Name, err)
	}
	quiescent["guardcheck"]++
}

// scratchArtifact is everything a compile produces that pooled scratch could
// corrupt: the printed IR, the trap-site numbering and the time-free Result.
type scratchArtifact struct {
	disasm, sites string
	res           Result
}

func compileArtifact(t *testing.T, build func() *ir.Program, cfg Config, model *arch.Model) scratchArtifact {
	t.Helper()
	p := build()
	res, err := CompileProgram(p, cfg, model)
	if err != nil {
		t.Errorf("%s/%s: %v", model.Name, cfg.Name, err)
		return scratchArtifact{}
	}
	res.Times = Times{}
	return scratchArtifact{disasm: disasm(p), sites: trapSites(p), res: *res}
}

// firstCompile compiles with every pool empty: sync.Pool drops what it holds
// over two collections.
func firstCompile(t *testing.T, build func() *ir.Program, cfg Config, model *arch.Model) scratchArtifact {
	runtime.GC()
	runtime.GC()
	return compileArtifact(t, build, cfg, model)
}

// TestPooledScratchCarriesNoState: the passes' pooled workspaces serve
// compiles of every size, one after another and on several goroutines at
// once, and must carry nothing from one compile into the next. Under every
// configuration on both models the smallest and the largest workload are
// compiled small, large, small again, and then from 4 goroutines at once;
// every compile must print the IR, number the trap sites and count the
// Result exactly as a first compile with empty pools does.
func TestPooledScratchCarriesNoState(t *testing.T) {
	var small, large *workloads.Workload
	size := map[*workloads.Workload]int{}
	for _, w := range workloads.All() {
		p, _ := w.Build()
		for _, m := range p.Methods {
			if m.Fn != nil {
				size[w] += m.Fn.NumInstrs()
			}
		}
		if small == nil || size[w] < size[small] {
			small = w
		}
		if large == nil || size[w] > size[large] {
			large = w
		}
	}
	builds := []func() *ir.Program{
		func() *ir.Program { p, _ := small.Build(); return p },
		func() *ir.Program { p, _ := large.Build(); return p },
	}
	for _, model := range []*arch.Model{arch.IA32Win(), arch.PPCAIX()} {
		for _, cfg := range AllConfigs() {
			want := []scratchArtifact{firstCompile(t, builds[0], cfg, model), firstCompile(t, builds[1], cfg, model)}
			check := func(which int, label string) {
				if got := compileArtifact(t, builds[which], cfg, model); got != want[which] {
					t.Errorf("%s/%s %s: compile differs from a first compile", model.Name, cfg.Name, label)
				}
			}
			check(0, "small")
			check(1, "large after small")
			check(0, "small after large")
			concurrently(4, func(g int) {
				for i := 0; i < 4; i++ {
					which := (g + i) % 2
					check(which, fmt.Sprintf("goroutine %d compile %d", g, i))
				}
			})
		}
	}
}
