package randprog

// Bisection helper for fuzzer findings: set the seed/config below, remove
// the Skip, and the first pass whose output diverges from the baseline
// outcome is reported. Built on CompileOptions.AfterPass, so it observes the
// production pipeline itself.

import (
	"fmt"
	"testing"
	"time"

	"trapnull/internal/arch"
	"trapnull/internal/ir"
	"trapnull/internal/jit"
	"trapnull/internal/machine"
	"trapnull/internal/rt"
)

func TestBisectSeed(t *testing.T) {
	t.Skip("bisection helper; enable manually and set seed")

	const seed = 0
	const n = 5
	model := arch.IA32Win()
	cfg := jit.ConfigPhase1Phase2()

	run := func(p *ir.Program, fn *ir.Func) (int64, rt.ExcKind, int64) {
		m := machine.New(model, p)
		out, err := m.Call(fn, n)
		if err != nil {
			t.Fatalf("sim error: %v", err)
		}
		return out.Value, out.Exc, m.Cycles
	}

	base, fnBase := Generate(DefaultConfig(seed))
	wantV, wantE, baseCycles := run(base, fnBase)
	fmt.Printf("baseline: %d %v cycles=%d\n", wantV, wantE, baseCycles)

	p, fn := Generate(DefaultConfig(seed))
	cfg.Verify = true
	_, err := jit.CompileProgramWith(p, cfg, model, jit.CompileOptions{
		AfterPass: func(pass string, f *ir.Func, _ time.Duration) error {
			if f != fn {
				return nil
			}
			gotV, gotE, cycles := run(p, f)
			fmt.Printf("%-16s %d %v cycles=%d\n", pass, gotV, gotE, cycles)
			if gotV != wantV || gotE != wantE {
				return fmt.Errorf("diverged (got %d %v, want %d %v)\n%s", gotV, gotE, wantV, wantE, f)
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
}
