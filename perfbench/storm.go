package main

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"trapnull/internal/arch"
	"trapnull/internal/bench"
	"trapnull/internal/ir"
	"trapnull/internal/jit"
	"trapnull/internal/machine"
	"trapnull/internal/workloads"
)

// adaptiveStorm replays bench.RunTieredAll and bench.RunDegradationAll:
// the interp/eager/tiered/tiered-spec policies and the
// implicit/explicit/governed policies, each cell with its own compile cache
// and several invocations on one machine. The seed only shuffles the cell
// order; the work is the same.
type adaptiveStorm struct {
	seed  int64
	quick bool
	cells []stormCell
}

// stormCell is one (model, workload, policy) cell and what the reference
// bench run measured for it.
type stormCell struct {
	model  *arch.Model
	cfg    jit.Config
	w      *workloads.Workload
	policy string
	tier   bool // a tiering cell; otherwise a degradation cell
	// Reference outcome: first and steady invocation cycles plus the
	// adaptive decisions taken.
	first, steady    int64
	promoted, deopts int
	demoted, recomp  int
}

func (c stormCell) String() string { return c.model.Name + "/" + c.policy + "/" + c.w.Name }

func (s *adaptiveStorm) tierPolicy() machine.TierPolicy {
	p := machine.DefaultTierPolicy()
	if s.quick {
		p.T1Blocks, p.T2Blocks, p.MinCheckExecs = 128, 128, 16
	}
	return p
}

func (s *adaptiveStorm) governorPolicy() machine.GovernorPolicy {
	p := machine.DefaultGovernorPolicy()
	if s.quick {
		p.MinSiteExecs, p.BackoffTraps = 64, 8
	}
	return p
}

// Invocations per cell, as the bench harness defaults them.
const (
	tierReps        = 4
	degradationReps = 3
)

// setup runs the two bench sweeps themselves, which warms the process and
// yields the reference every replayed cell must reproduce.
func (s *adaptiveStorm) setup() error {
	tiered, err := bench.RunTieredAll(bench.TierOptions{Quick: s.quick})
	if err != nil {
		return fmt.Errorf("reference tiered sweep: %w", err)
	}
	degr, err := bench.RunDegradationAll(bench.DegradationOptions{Quick: s.quick})
	if err != nil {
		return fmt.Errorf("reference degradation sweep: %w", err)
	}
	s.cells = s.cells[:0]
	for _, m := range []*bench.TierMatrix{tiered.Win, tiered.AIX} {
		for _, w := range m.Workloads {
			for _, pol := range m.Policies {
				rc := m.Cell(pol, w.Name)
				s.cells = append(s.cells, stormCell{model: m.Model, cfg: m.Config, w: w, policy: pol, tier: true,
					first: rc.FirstCycles, steady: rc.SteadyCycles,
					promoted: rc.PromotionsT1 + rc.PromotionsT2, deopts: rc.Deopts})
			}
		}
	}
	for _, m := range []*bench.DegradationMatrix{degr.Win, degr.AIX} {
		for _, w := range m.Workloads {
			for _, pol := range m.Policies {
				rc := m.Cell(pol, w.Name)
				s.cells = append(s.cells, stormCell{model: m.Model, cfg: m.Config, w: w, policy: pol,
					first: rc.FirstCycles, steady: rc.SteadyCycles, demoted: rc.Demotions, recomp: rc.Recompiles})
			}
		}
	}
	rng := rand.New(rand.NewSource(s.seed))
	rng.Shuffle(len(s.cells), func(i, j int) { s.cells[i], s.cells[j] = s.cells[j], s.cells[i] })
	return nil
}

func (s *adaptiveStorm) pass(p *probe, t *tally) {
	for _, c := range s.cells {
		t.done(c.String(), guarded(func() error {
			if c.tier {
				return s.tierCell(p, t, c)
			}
			return s.degradationCell(p, t, c)
		}))
	}
}

// invoke calls the entry reps times, checking every invocation against the
// reference checksum, and returns the first and last invocation's cycles.
func invoke(p *probe, t *tally, m *machine.Machine, sp spanName, fn *ir.Func, n, want int64, reps int) (first, last int64, err error) {
	for rep := 0; rep < reps; rep++ {
		before := m.Cycles
		if err := call(p, t, m, sp, fn, n, want); err != nil {
			return 0, 0, fmt.Errorf("invocation %d: %w", rep+1, err)
		}
		last = m.Cycles - before
		if rep == 0 {
			first = last
		}
	}
	return first, last, nil
}

// tierCell is bench's tiered cell. Compile-to-peak is the initial compile,
// plus eager's up-front closure compiles, plus the tier-2 recompiles the
// controller requests through the spec compiler, all on the probe's thread
// CPU clock. (bench's TierCell.CompileToPeak also counts the controller's
// closure compiles, which the machine times internally on the wall clock;
// they are reported as machine.tier_compile_ms instead.)
func (s *adaptiveStorm) tierCell(p *probe, t *tally, c stormCell) error {
	n := size(c.w, s.quick)
	cache := jit.NewCache(0)
	defer func() { t.addCache(cache.Stats()) }()
	_, entry := build(p, c.w)
	specCompile := func(mask map[string][]int) (*jit.CacheEntry, error) {
		prog, _ := build(p, c.w)
		spec := jit.SpecSet(mask)
		var key jit.CacheKey
		p.do(spKey, func() { key = jit.KeySpec(prog, c.cfg, c.model, spec) })
		return cacheGet(p, t, cache, key, prog, c.cfg, c.model, jit.CompileOptions{Spec: spec})
	}
	start := p.now()
	e0, err := specCompile(nil)
	toPeak := time.Duration(p.now() - start)
	if err != nil {
		return err
	}
	fn, err := entryFn(e0.Program, entry)
	if err != nil {
		return err
	}
	m := newMachine(p, c.model, e0.Program)
	sp := spCallTiered
	switch c.policy {
	case "interp":
		m.Engine = machine.EngineSwitch
		sp = spCallSwitch
	case "eager":
		m.Engine = machine.EngineClosure
		sp = spCallClosure
		toPeak += p.timed(spPrecompile, func() { m.PrecompileClosures() })
	case "tiered":
		m.EnableTiering(s.tierPolicy(), nil)
	case "tiered-spec":
		m.EnableTiering(s.tierPolicy(), func(mask map[string][]int) (prog *ir.Program, err error) {
			toPeak += p.timed(spSpecCompiler, func() {
				var e *jit.CacheEntry
				if e, err = specCompile(mask); err == nil {
					prog = e.Program
				}
			})
			return prog, err
		})
	default:
		return errors.New("unknown policy")
	}
	first, steady, err := invoke(p, t, m, sp, fn, n, ref(p, c.w, n), tierReps)
	t.addExec(m.Stats)
	if err != nil {
		return err
	}
	rep := m.TierReport()
	promoted := 0
	for _, ev := range rep.Events {
		if ev.Kind == "promote-t1" || ev.Kind == "promote-t2" {
			promoted++
		}
	}
	t.simCycles += steady
	t.compileToPeak += toPeak
	t.tierCompile += rep.CompileHost
	t.promotions += int64(promoted)
	t.deopts += int64(rep.Deopts)
	t.osr += int64(rep.OSREntries)
	return s.compare(c, first, steady, promoted, rep.Deopts, 0, 0)
}

// degradationCell is bench's degradation cell.
func (s *adaptiveStorm) degradationCell(p *probe, t *tally, c stormCell) error {
	n := size(c.w, s.quick)
	cfg := c.cfg
	if c.policy == "explicit" {
		cfg = bench.ExplicitConfig()
	}
	cache := jit.NewCache(0)
	defer func() { t.addCache(cache.Stats()) }()
	_, entry := build(p, c.w)
	demoteCompile := func(demote map[string][]int) (*ir.Program, error) {
		prog, _ := build(p, c.w)
		d := jit.DemoteSet(demote)
		var key jit.CacheKey
		p.do(spKey, func() { key = jit.KeyDemote(prog, cfg, c.model, nil, d) })
		e, err := cacheGet(p, t, cache, key, prog, cfg, c.model, jit.CompileOptions{Demote: d})
		if err != nil {
			return nil, err
		}
		return e.Program, nil
	}
	prog, err := demoteCompile(nil)
	if err != nil {
		return err
	}
	fn, err := entryFn(prog, entry)
	if err != nil {
		return err
	}
	m := newMachine(p, c.model, prog)
	sp := engineSpan(m)
	switch c.policy {
	case "implicit", "explicit":
	case "governed":
		sp = spCallTiered
		m.EnableGovernor(s.governorPolicy(), func(demote map[string][]int) (prog *ir.Program, err error) {
			p.do(spDemoteCompiler, func() { prog, err = demoteCompile(demote) })
			return prog, err
		})
	default:
		return errors.New("unknown policy")
	}
	first, steady, err := invoke(p, t, m, sp, fn, n, ref(p, c.w, n), degradationReps)
	t.addExec(m.Stats)
	if err != nil {
		return err
	}
	rep := m.GovernorReport()
	t.simCycles += steady
	t.govCompile += rep.CompileHost
	t.demotions += int64(rep.Demotions)
	t.recompiles += int64(rep.Recompiles)
	return s.compare(c, first, steady, 0, 0, rep.Demotions, rep.Recompiles)
}

// compare checks a replayed cell against the reference bench run.
func (s *adaptiveStorm) compare(c stormCell, first, steady int64, promoted, deopts, demoted, recomp int) error {
	switch {
	case first != c.first:
		return mismatch("first-invocation cycles", first, c.first)
	case steady != c.steady:
		return mismatch("steady-state cycles", steady, c.steady)
	case promoted != c.promoted:
		return mismatch("promotions", promoted, c.promoted)
	case deopts != c.deopts:
		return mismatch("deopts", deopts, c.deopts)
	case demoted != c.demoted:
		return mismatch("demotions", demoted, c.demoted)
	case recomp != c.recomp:
		return mismatch("governed recompiles", recomp, c.recomp)
	}
	return nil
}
