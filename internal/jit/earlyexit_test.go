package jit

import (
	"fmt"
	"strings"
	"testing"

	"trapnull/internal/arch"
	"trapnull/internal/ir"
	"trapnull/internal/obs"
	"trapnull/internal/randprog"
	"trapnull/internal/workloads"
)

// compileUnrolled compiles prog like CompileProgramWith but runs every pass
// of the pipeline through runPass: with every round tag cleared, no round is
// ever skipped as quiescent.
func compileUnrolled(prog *ir.Program, cfg Config, model *arch.Model, opts CompileOptions) (*Result, error) {
	passes := pipeline(cfg)
	for i := range passes {
		passes[i].round = 0
	}
	return compileProgram(prog, passes, cfg, model, opts)
}

// trapSites lists every method's trap-site numbering in block order.
func trapSites(p *ir.Program) string {
	var sb strings.Builder
	for _, m := range p.Methods {
		if m.Fn == nil {
			continue
		}
		sb.WriteString(m.QualifiedName())
		for _, b := range m.Fn.Blocks {
			for _, in := range b.Instrs {
				if in.TrapSite != 0 {
					fmt.Fprintf(&sb, " %d", in.TrapSite)
				}
			}
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// compileBoth compiles two fresh builds of one program, with the production
// pipeline and fully unrolled, and reports the first difference in the
// compiled bodies, trap-site numbering, static Result counts or fate ledger.
func compileBoth(build func() *ir.Program, cfg Config, model *arch.Model) error {
	var out [2]string
	for i, compile := range []func(*ir.Program, Config, *arch.Model, CompileOptions) (*Result, error){
		CompileProgramWith, compileUnrolled,
	} {
		p := build()
		ob := &Observer{Remarks: obs.NewRemarks()}
		res, err := compile(p, cfg, model, CompileOptions{Observer: ob})
		if err != nil {
			return err
		}
		res.Times = Times{}
		out[i] = strings.Join([]string{disasm(p), trapSites(p), fmt.Sprintf("%+v", *res), renderRemarks(ob.Remarks)}, "\n")
	}
	if out[0] != out[1] {
		return fmt.Errorf("early exit diverges from the unrolled pipeline:\n%s\n--- unrolled ---\n%s", out[0], out[1])
	}
	return nil
}

// TestEarlyExitMatchesUnrolledPipeline: skipping the rounds after the first
// quiescent one changes nothing a compile produces, for every workload and
// a slice of generated programs, under every configuration on both models.
func TestEarlyExitMatchesUnrolledPipeline(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 3
	}
	for _, model := range []*arch.Model{arch.IA32Win(), arch.PPCAIX()} {
		for _, cfg := range AllConfigs() {
			for _, w := range workloads.All() {
				build := func() *ir.Program { p, _ := w.Build(); return p }
				if err := compileBoth(build, cfg, model); err != nil {
					t.Fatalf("%s/%s/%s: %v", model.Name, cfg.Name, w.Name, err)
				}
			}
			for seed := int64(1); seed <= int64(seeds); seed++ {
				build := func() *ir.Program { p, _ := randprog.Generate(randprog.DefaultConfig(seed)); return p }
				if err := compileBoth(build, cfg, model); err != nil {
					t.Fatalf("%s/%s/randprog seed %d: %v", model.Name, cfg.Name, seed, err)
				}
			}
		}
	}
}
