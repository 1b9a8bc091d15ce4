package jit

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"trapnull/internal/arch"
	"trapnull/internal/ir"
	"trapnull/internal/opt"
	"trapnull/internal/randprog"
	"trapnull/internal/workloads"
)

// keyArtifact is what a cache hit hands back in place of a fresh compile,
// reduced to what must not depend on how the configuration was spelled:
// disassembly, trap-site numbering, the time-free static Result counts, and
// the compile error, if any. The renderings are stored as digests so a sweep
// can remember one artifact per key cheaply.
type keyArtifact struct {
	disasm, sites [sha256.Size]byte
	res           Result
	err           string
}

// compileKeyed keys a fresh build under (cfg, model), compiles it, and
// returns the key with the artifact.
func compileKeyed(build func() *ir.Program, cfg Config, model *arch.Model) (CacheKey, keyArtifact) {
	p := build()
	key := Key(p, cfg, model)
	res, err := CompileProgram(p, cfg, model)
	if err != nil {
		return key, keyArtifact{err: err.Error()}
	}
	a := keyArtifact{
		disasm: sha256.Sum256([]byte(disasm(p))),
		sites:  sha256.Sum256([]byte(trapSites(p))),
		res:    *res,
	}
	a.res.Config, a.res.Times = Config{}, Times{}
	return key, a
}

// keyPerturbation changes one Config field, or the execution model's trap
// area, of a base compilation. noop reports whether ProjectConfig documents
// the change as one that cannot alter generated code for this base, so the
// key must not move.
type keyPerturbation struct {
	name  string
	apply func(c Config, m arch.Model) (Config, arch.Model, bool)
}

// lowers reports whether any trap lowering runs under c.
func lowers(c Config) bool { return c.Phase2 || c.TrapConvert || c.TrapFold }

// trapModelName is the name of the model c's lowering assumes on m.
func trapModelName(c Config, m arch.Model) string {
	if c.Phase2Model != nil {
		return c.Phase2Model.Name
	}
	return m.Name
}

func keyPerturbations() []keyPerturbation {
	withP2Model := func(name string, pm func() *arch.Model) keyPerturbation {
		return keyPerturbation{name, func(c Config, m arch.Model) (Config, arch.Model, bool) {
			old := trapModelName(c, m)
			c.Phase2Model = pm()
			return c, m, !lowers(c) || trapModelName(c, m) == old
		}}
	}
	return []keyPerturbation{
		{"Name", func(c Config, m arch.Model) (Config, arch.Model, bool) {
			c.Name += "-renamed"
			return c, m, true
		}},
		{"Verify", func(c Config, m arch.Model) (Config, arch.Model, bool) {
			c.Verify = !c.Verify
			return c, m, true
		}},
		{"Inline", func(c Config, m arch.Model) (Config, arch.Model, bool) {
			c.Inline = !c.Inline
			return c, m, false
		}},
		{"InlineBudget spelled", func(c Config, m arch.Model) (Config, arch.Model, bool) {
			// 0 and opt.InlineBudget are the same budget; a custom budget
			// falls back to the default, which only matters with Inline on.
			switch c.InlineBudget {
			case 0:
				c.InlineBudget = opt.InlineBudget
				return c, m, true
			case opt.InlineBudget:
				c.InlineBudget = 0
				return c, m, true
			}
			c.InlineBudget = 0
			return c, m, !c.Inline
		}},
		{"InlineBudget+7", func(c Config, m arch.Model) (Config, arch.Model, bool) {
			if c.InlineBudget == 0 {
				c.InlineBudget = opt.InlineBudget
			}
			c.InlineBudget += 7
			return c, m, !c.Inline
		}},
		{"Algo", func(c Config, m arch.Model) (Config, arch.Model, bool) {
			c.Algo = (c.Algo + 1) % (AlgoNew + 1)
			return c, m, false
		}},
		{"Iterations+1", func(c Config, m arch.Model) (Config, arch.Model, bool) {
			c.Iterations++
			return c, m, c.Iterations == 1
		}},
		{"Iterations-1", func(c Config, m arch.Model) (Config, arch.Model, bool) {
			if c.Iterations > 0 {
				c.Iterations--
			}
			return c, m, c.Iterations == 0
		}},
		{"OtherOpts", func(c Config, m arch.Model) (Config, arch.Model, bool) {
			c.OtherOpts = !c.OtherOpts
			return c, m, false
		}},
		{"LightScalar", func(c Config, m arch.Model) (Config, arch.Model, bool) {
			c.LightScalar = !c.LightScalar
			return c, m, false
		}},
		{"TrapFold", func(c Config, m arch.Model) (Config, arch.Model, bool) {
			c.TrapFold = !c.TrapFold
			return c, m, c.Phase2 || c.TrapConvert
		}},
		{"TrapConvert", func(c Config, m arch.Model) (Config, arch.Model, bool) {
			c.TrapConvert = !c.TrapConvert
			return c, m, c.Phase2
		}},
		{"Phase2", func(c Config, m arch.Model) (Config, arch.Model, bool) {
			c.Phase2 = !c.Phase2
			return c, m, false
		}},
		withP2Model("Phase2Model=nil", func() *arch.Model { return nil }),
		withP2Model("Phase2Model=ia32-win", arch.IA32Win),
		withP2Model("Phase2Model=ppc-aix", arch.PPCAIX),
		{"Speculation", func(c Config, m arch.Model) (Config, arch.Model, bool) {
			c.Speculation = !c.Speculation
			return c, m, !m.SpeculativeReads
		}},
		{"SkipGuardCheck", func(c Config, m arch.Model) (Config, arch.Model, bool) {
			c.SkipGuardCheck = !c.SkipGuardCheck
			return c, m, false
		}},
		{"InjectUnsafeSubstitution", func(c Config, m arch.Model) (Config, arch.Model, bool) {
			c.InjectUnsafeSubstitution = !c.InjectUnsafeSubstitution
			return c, m, false
		}},
		{"TrapAreaBytes", func(c Config, m arch.Model) (Config, arch.Model, bool) {
			// Only the header word stays protected, so field dereferences
			// stop trapping and lowering keeps their explicit checks.
			m.TrapAreaBytes = ir.WordBytes
			return c, m, false
		}},
	}
}

// TestCacheKeyMetamorphic: equal cache keys must mean identical artifacts.
// Every AllConfigs entry on both stock models is compiled under each
// single-field Config perturbation and a trap-area change, over the
// seventeen paper workloads and a few random programs; any two compilations
// that share a key must agree on disassembly, trap-site numbering, static
// counts and compile errors, and every perturbation ProjectConfig documents
// as a no-op must leave the key where it was. An under-keyed projection (a
// field the passes read but the key drops, like the execution model keyed by
// name alone) fails the first check; an over-split key fails the second.
func TestCacheKeyMetamorphic(t *testing.T) {
	type program struct {
		name  string
		build func() *ir.Program
	}
	var progs []program
	for _, w := range workloads.All() {
		progs = append(progs, program{w.Name, func() *ir.Program { p, _ := w.Build(); return p }})
	}
	for _, seed := range []int64{11, 12, 13} {
		cfg := randprog.DefaultConfig(seed)
		progs = append(progs, program{fmt.Sprintf("randprog%d", seed), func() *ir.Program { p, _ := randprog.Generate(cfg); return p }})
	}
	configs := AllConfigs()
	if testing.Short() {
		progs = append(progs[:3], progs[len(progs)-1])
	}
	perturbs := keyPerturbations()
	for _, pr := range progs {
		type seen struct {
			by  string
			art keyArtifact
		}
		byKey := map[CacheKey]seen{}
		record := func(who string, key CacheKey, art keyArtifact) {
			prev, ok := byKey[key]
			if !ok {
				byKey[key] = seen{who, art}
				return
			}
			var what string
			switch {
			case prev.art.err != art.err:
				what = fmt.Sprintf("compile errors (%q vs %q)", prev.art.err, art.err)
			case prev.art.disasm != art.disasm:
				what = "disassembly"
			case prev.art.sites != art.sites:
				what = "trap-site numbering"
			case prev.art.res != art.res:
				what = fmt.Sprintf("static counts (%+v vs %+v)", prev.art.res, art.res)
			default:
				return
			}
			t.Errorf("%s: %s and %s share a cache key but differ in %s", pr.name, prev.by, who, what)
		}
		for _, model := range []*arch.Model{arch.IA32Win(), arch.PPCAIX()} {
			for _, cfg := range configs {
				base := model.Name + "/" + cfg.Name
				baseKey, art := compileKeyed(pr.build, cfg, model)
				record(base, baseKey, art)
				for _, pt := range perturbs {
					c, m, noop := pt.apply(cfg, *model)
					who := base + " " + pt.name
					key, art := compileKeyed(pr.build, c, &m)
					if noop && key != baseKey {
						t.Errorf("%s: %s is a documented no-op but moved the key:\n%+v\n%+v", pr.name, who, baseKey.Proj, key.Proj)
					}
					record(who, key, art)
				}
			}
		}
	}
}
