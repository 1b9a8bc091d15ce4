package randprog

import (
	"fmt"
	"math/rand"
	"testing"

	"trapnull/internal/arch"
	"trapnull/internal/ir"
	"trapnull/internal/jasm"
	"trapnull/internal/jit"
	"trapnull/internal/machine"
	"trapnull/internal/rt"
)

const seeds = 200

// outcomeOf runs fn and returns (value, exception kind). Simulation errors
// (unexpected traps, invalid IR) fail the test — they mean a broken
// optimizer, never a legal program behaviour.
func outcomeOf(t *testing.T, seed int64, label string, p *ir.Program, fn *ir.Func, m *arch.Model, n int64) (int64, rt.ExcKind) {
	t.Helper()
	mach := machine.New(m, p)
	out, err := mach.Call(fn, n)
	if err != nil {
		t.Fatalf("seed %d [%s]: simulation error: %v\n%s", seed, label, err, fn)
	}
	return out.Value, out.Exc
}

func TestGeneratedProgramsAreValidAndTerminate(t *testing.T) {
	for seed := int64(0); seed < seeds; seed++ {
		p, fn := Generate(DefaultConfig(seed))
		if err := ir.Validate(fn); err != nil {
			t.Fatalf("seed %d: invalid: %v", seed, err)
		}
		outcomeOf(t, seed, "unoptimized", p, fn, arch.IA32Win(), 5)
	}
}

// TestDifferentialAllLegalConfigs is the central property test promised in
// DESIGN.md §6: for random programs, every legal configuration must produce
// exactly the outcome of the unoptimized program — same checksum, or the
// same exception kind when the program faults.
func TestDifferentialAllLegalConfigs(t *testing.T) {
	type platform struct {
		model   *arch.Model
		configs []jit.Config
	}
	platforms := []platform{
		{arch.IA32Win(), jit.WindowsConfigs()},
		{arch.PPCAIX(), legalAIXConfigs()},
		{arch.SPARCLike(), jit.WindowsConfigs()},
	}
	for seed := int64(0); seed < seeds; seed++ {
		for _, pl := range platforms {
			base, fnBase := Generate(DefaultConfig(seed))
			wantV, wantE := outcomeOf(t, seed, "baseline/"+pl.model.Name, base, fnBase, pl.model, 5)

			for _, cfg := range pl.configs {
				p, fn := Generate(DefaultConfig(seed))
				if _, err := jit.CompileProgram(p, cfg, pl.model); err != nil {
					t.Fatalf("seed %d [%s/%s]: compile: %v\n%s", seed, pl.model.Name, cfg.Name, err, fn)
				}
				gotV, gotE := outcomeOf(t, seed, pl.model.Name+"/"+cfg.Name, p, fn, pl.model, 5)
				if gotE != wantE || (wantE == rt.ExcNone && gotV != wantV) {
					t.Fatalf("seed %d [%s/%s]: outcome (%d,%v), want (%d,%v)\n%s",
						seed, pl.model.Name, cfg.Name, gotV, gotE, wantV, wantE, fn)
				}
			}
		}
	}
}

// legalAIXConfigs drops the deliberately spec-violating configuration: a
// missed NPE is its documented behaviour, not a bug.
func legalAIXConfigs() []jit.Config {
	var out []jit.Config
	for _, c := range jit.AIXConfigs() {
		if !c.SkipGuardCheck {
			out = append(out, c)
		}
	}
	return out
}

// TestDynamicChecksNeverIncrease: the PRE no-regression property — on any
// concrete execution, the optimized program runs at most as many explicit
// null checks as the unoptimized one.
func TestDynamicChecksNeverIncrease(t *testing.T) {
	model := arch.IA32Win()
	for seed := int64(0); seed < seeds; seed++ {
		base, fnBase := Generate(DefaultConfig(seed))
		mb := machine.New(model, base)
		if _, err := mb.Call(fnBase, 5); err != nil {
			t.Fatalf("seed %d: baseline: %v", seed, err)
		}

		for _, cfg := range jit.WindowsConfigs() {
			p, fn := Generate(DefaultConfig(seed))
			if _, err := jit.CompileProgram(p, cfg, model); err != nil {
				t.Fatalf("seed %d [%s]: compile: %v", seed, cfg.Name, err)
			}
			mo := machine.New(model, p)
			if _, err := mo.Call(fn, 5); err != nil {
				t.Fatalf("seed %d [%s]: run: %v\n%s", seed, cfg.Name, err, fn)
			}
			if mo.Stats.ExplicitChecks > mb.Stats.ExplicitChecks {
				t.Fatalf("seed %d [%s]: executed %d explicit checks, baseline %d\n%s",
					seed, cfg.Name, mo.Stats.ExplicitChecks, mb.Stats.ExplicitChecks, fn)
			}
		}
	}
}

// TestCyclesNeverIncrease: the stronger economic property for the full
// algorithm specifically — optimization must not make a program slower on
// the non-faulting path. Runs that raise any exception (even a caught one)
// are excluded: a fired hardware trap costs more than a failed software
// check by design — that trade-off is measured deliberately in Ablation C,
// not asserted away here.
func TestCyclesNeverIncrease(t *testing.T) {
	model := arch.IA32Win()
	for seed := int64(0); seed < seeds; seed++ {
		base, fnBase := Generate(DefaultConfig(seed))
		mb := machine.New(model, base)
		outB, err := mb.Call(fnBase, 5)
		if err != nil {
			t.Fatalf("seed %d: baseline: %v", seed, err)
		}
		if outB.Exc != rt.ExcNone || mb.Stats.ThrownSoftware > 0 || mb.Stats.TrapsTaken > 0 {
			continue
		}

		p, fn := Generate(DefaultConfig(seed))
		if _, err := jit.CompileProgram(p, jit.ConfigPhase1Phase2(), model); err != nil {
			t.Fatalf("seed %d: compile: %v", seed, err)
		}
		mo := machine.New(model, p)
		if _, err := mo.Call(fn, 5); err != nil {
			t.Fatalf("seed %d: run: %v\n%s", seed, err, fn)
		}
		if mo.Cycles > mb.Cycles {
			t.Fatalf("seed %d: optimized runs slower: %d > %d cycles\n%s",
				seed, mo.Cycles, mb.Cycles, fn)
		}
	}
}

// TestDeterministicGeneration: same seed, same program.
func TestDeterministicGeneration(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		_, f1 := Generate(DefaultConfig(seed))
		_, f2 := Generate(DefaultConfig(seed))
		if f1.String() != f2.String() {
			t.Fatalf("seed %d: generation not deterministic", seed)
		}
	}
}

// TestPooledSourceMatchesFreshSource: Generate's reseeded pooled source
// prints every program byte-identically to a fresh rand.NewSource(seed),
// serially and from concurrent goroutines sharing the pool.
func TestPooledSourceMatchesFreshSource(t *testing.T) {
	want := make([]string, seeds+1)
	for seed := int64(1); seed <= seeds; seed++ {
		p, _ := generate(DefaultConfig(seed), rand.New(rand.NewSource(seed)))
		want[seed] = jasm.Format(p)
	}
	check := func(seed int64) error {
		if p, _ := Generate(DefaultConfig(seed)); jasm.Format(p) != want[seed] {
			return fmt.Errorf("seed %d: pooled source prints differently from a fresh one", seed)
		}
		return nil
	}
	for seed := int64(1); seed <= seeds; seed++ {
		if err := check(seed); err != nil {
			t.Fatal(err)
		}
	}
	const workers = 8
	errs := make(chan error, workers)
	for w := range int64(workers) {
		go func() {
			var err error
			for seed := 1 + w; seed <= seeds && err == nil; seed += workers {
				err = check(seed)
			}
			errs <- err
		}()
	}
	for range workers {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// TestVariedInputs: differential equivalence must hold across input sizes,
// not just one.
func TestVariedInputs(t *testing.T) {
	model := arch.IA32Win()
	cfg := jit.ConfigPhase1Phase2()
	for seed := int64(0); seed < 40; seed++ {
		for _, n := range []int64{0, 1, 7, -3} {
			base, fnBase := Generate(DefaultConfig(seed))
			wantV, wantE := outcomeOf(t, seed, "baseline", base, fnBase, model, n)

			p, fn := Generate(DefaultConfig(seed))
			if _, err := jit.CompileProgram(p, cfg, model); err != nil {
				t.Fatalf("seed %d n=%d: compile: %v", seed, n, err)
			}
			gotV, gotE := outcomeOf(t, seed, "full", p, fn, model, n)
			if gotE != wantE || (wantE == rt.ExcNone && gotV != wantV) {
				t.Fatalf("seed %d n=%d: outcome (%d,%v), want (%d,%v)", seed, n, gotV, gotE, wantV, wantE)
			}
		}
	}
}
