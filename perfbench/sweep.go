package main

import (
	"fmt"
	"math/rand"

	"trapnull/internal/arch"
	"trapnull/internal/bench"
	"trapnull/internal/jit"
	"trapnull/internal/workloads"
)

// paperSweep replays bench.RunAll: both machine models × both suites ×
// their paper configurations, 170 cells at full size, each of the four
// sweeps with its own compile cache, on the closure engine. The seed only
// shuffles the cell order inside each sweep; the work is the same.
type paperSweep struct {
	seed   int64
	quick  bool
	sweeps [][]sweepCell
}

type sweepCell struct {
	model *arch.Model
	cfg   jit.Config
	w     *workloads.Workload
	// cycles is the cell's simulated cost in the reference bench.RunAll run.
	cycles int64
}

func (c sweepCell) String() string { return c.model.Name + "/" + c.cfg.Name + "/" + c.w.Name }

// setup runs bench.RunAll itself, which warms the process and yields the
// reference cycles every replayed cell must reproduce.
func (s *paperSweep) setup() error {
	rep, err := bench.RunAll(bench.Options{Quick: s.quick, Parallelism: 1, CompileCache: bench.CacheOn})
	if err != nil {
		return fmt.Errorf("reference sweep: %w", err)
	}
	rng := rand.New(rand.NewSource(s.seed))
	s.sweeps = s.sweeps[:0]
	for _, m := range []*bench.Matrix{rep.WinJB, rep.WinSpec, rep.AIXJB, rep.AIXSpec} {
		var cells []sweepCell
		for _, cfg := range m.Configs {
			for _, w := range m.Workloads {
				cells = append(cells, sweepCell{model: m.Model, cfg: cfg, w: w, cycles: m.Cell(cfg.Name, w.Name).Cycles})
			}
		}
		rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
		s.sweeps = append(s.sweeps, cells)
	}
	return nil
}

func (s *paperSweep) pass(p *probe, t *tally) {
	for _, cells := range s.sweeps {
		cache := jit.NewCache(0)
		for _, c := range cells {
			t.done(c.String(), guarded(func() error { return s.cell(p, t, cache, c) }))
		}
		t.addCache(cache.Stats())
	}
	t.compileToPeak = sumDurations(t.compiles)
}

// cell is bench's cached cell: build, key, look up or compile, run once,
// verify the checksum and the reference cycles.
func (s *paperSweep) cell(p *probe, t *tally, cache *jit.Cache, c sweepCell) error {
	n := size(c.w, s.quick)
	prog, entry := build(p, c.w)
	var key jit.CacheKey
	p.do(spKey, func() { key = jit.Key(prog, c.cfg, c.model) })
	e, err := cacheGet(p, t, cache, key, prog, c.cfg, c.model, jit.CompileOptions{})
	if err != nil {
		return err
	}
	fn, err := entryFn(e.Program, entry)
	if err != nil {
		return err
	}
	m := newMachine(p, c.model, e.Program)
	err = call(p, t, m, engineSpan(m), fn, n, ref(p, c.w, n))
	t.addExec(m.Stats)
	t.simCycles += m.Cycles
	if err != nil {
		return err
	}
	if m.Cycles != c.cycles {
		return mismatch("cycles", m.Cycles, c.cycles)
	}
	return nil
}
