package randprog

import (
	"testing"

	"trapnull/internal/arch"
	"trapnull/internal/jit"
	"trapnull/internal/machine"
	"trapnull/internal/rt"
)

func TestDeepFuzz(t *testing.T) {
	// In -short mode run a reduced smoke pass instead of skipping outright:
	// every configuration variant still executes, over a 100x smaller seed
	// range, so CI catches gross pipeline breakage in seconds.
	first, last := int64(1000), int64(4000)
	if testing.Short() {
		last = first + 30
	}
	model := arch.IA32Win()
	aix := arch.PPCAIX()
	variant := func(seed int64) Config {
		cfg := DefaultConfig(seed)
		switch seed % 4 {
		case 1:
			cfg.MaxDepth = 5 // deeper nesting
		case 2:
			cfg.AllowTry = false
			cfg.MaxStmts = 10
		case 3:
			cfg.AllowNull = false
			cfg.AllowOOB = false
		}
		return cfg
	}
	for seed := first; seed < last; seed++ {
		base, fnBase := Generate(variant(seed))
		mb := machine.New(model, base)
		outB, err := mb.Call(fnBase, 5)
		if err != nil {
			t.Fatalf("seed %d: baseline: %v", seed, err)
		}
		for _, pc := range []struct {
			m   *arch.Model
			cfg jit.Config
		}{
			{model, jit.ConfigPhase1Phase2()},
			{model, jit.ConfigPhase1Only()},
			{model, jit.ConfigHotSpotSim()},
			{aix, jit.ConfigAIXSpeculation()},
			{aix, jit.ConfigAIXWriteImplicit()},
		} {
			p, fn := Generate(variant(seed))
			if _, err := jit.CompileProgram(p, pc.cfg, pc.m); err != nil {
				t.Fatalf("seed %d [%s/%s]: compile: %v", seed, pc.m.Name, pc.cfg.Name, err)
			}
			mo := machine.New(pc.m, p)
			out, err := mo.Call(fn, 5)
			if err != nil {
				t.Fatalf("seed %d [%s/%s]: run: %v\n%s", seed, pc.m.Name, pc.cfg.Name, err, fn)
			}
			if out.Exc != outB.Exc || (outB.Exc == rt.ExcNone && out.Value != outB.Value) {
				t.Fatalf("seed %d [%s/%s]: (%d,%v) want (%d,%v)\n%s",
					seed, pc.m.Name, pc.cfg.Name, out.Value, out.Exc, outB.Value, outB.Exc, fn)
			}
		}
	}
}
