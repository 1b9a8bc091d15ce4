package main

import (
	"time"
)

// layers are the layers whose self time the traced run accounts for, in
// report order. Spans of the bench layer are the pass roots: the harness.
var layers = []string{"workloads", "randprog", "jit", "opt", "nullcheck", "ir", "machine"}

// perCallSpans are reported as mean self time per call, in µs.
var perCallSpans = []spanName{
	spKey, spCacheGet,
	spInline, spRotate, spCopyProp, spConstFold, spBoundElim, spScalar, spCSE, spDCE, spSimplifyCFG,
	spPhase1, spPhase2, spWhaley, spTrapConvert, spTrapFold, spCheckGuards,
	spValidate, spMachNew, spPrecompile,
}

// layerMetrics derives the per-layer metrics from the traced passes, and
// the accounting against the untraced passes run alternately with them.
func layerMetrics(r *result, untraced, traced []passResult) {
	var all spanTotals
	var static tallyTotals
	for _, pr := range traced {
		for n := spanName(0); n < numSpans; n++ {
			all.incl[n] += pr.spans.incl[n]
			all.self[n] += pr.spans.self[n]
			all.calls[n] += pr.spans.calls[n]
		}
		static.add(pr.t)
	}
	perPass := func(f func(i int) float64) float64 {
		xs := make([]float64, len(traced))
		for i := range traced {
			xs[i] = f(i)
		}
		return median(xs)
	}
	count := func(f func(t *tally) int64) float64 {
		return perPass(func(i int) float64 { return float64(f(traced[i].t)) })
	}
	selfMS := func(n spanName) float64 { return perPass(func(i int) float64 { return ms(traced[i].spans.self[n]) }) }
	inclMS := func(n spanName) float64 { return perPass(func(i int) float64 { return ms(traced[i].spans.incl[n]) }) }
	perCall := func(d time.Duration, calls int64) float64 {
		if calls == 0 {
			return 0
		}
		return us(d) / float64(calls)
	}
	nsPerInstr := func(d time.Duration, instrs int64) float64 {
		if instrs == 0 {
			return 0
		}
		return float64(d) / float64(instrs)
	}

	r.metric("workloads.build_ms", selfMS(spBuild), "ms")
	r.metric("workloads.ref_ms", selfMS(spRef), "ms")
	r.metric("randprog.gen_ms", selfMS(spGen), "ms")

	for _, n := range perCallSpans {
		r.metric(spanInfo[n].name+"_us", perCall(all.self[n], all.calls[n]), "us")
	}
	r.metric("jit.cache_hit_rate", perPass(func(i int) float64 {
		t := traced[i].t
		if t.cacheHits+t.cacheMisses == 0 {
			return 0
		}
		return float64(t.cacheHits) / float64(t.cacheHits+t.cacheMisses)
	}), "ratio")
	r.metric("jit.cache_misses", count(func(t *tally) int64 { return t.cacheMisses }), "count")
	compiles := all.calls[spCompile]
	r.metric("jit.compile_us", perCall(all.incl[spCompile], compiles), "us")
	r.metric("jit.nullopt_us", perCall(static.nullopt, compiles), "us")
	r.metric("jit.other_us", perCall(static.other, compiles), "us")

	r.metric("opt.inlined", count(func(t *tally) int64 { return int64(t.static.Inline.Inlined) }), "count")
	r.metric("opt.devirtualized", count(func(t *tally) int64 { return int64(t.static.Inline.Devirtualized) }), "count")
	r.metric("opt.bounds_removed", count(func(t *tally) int64 { return int64(t.static.BoundChecksRemoved) }), "count")
	r.metric("opt.scalar_promoted", count(func(t *tally) int64 { return int64(t.static.Scalar.Promoted) }), "count")
	r.metric("opt.hoisted", count(func(t *tally) int64 { return int64(t.static.Scalar.Hoisted) }), "count")
	r.metric("nullcheck.eliminated", count(func(t *tally) int64 { return int64(t.static.Checks.Eliminated) }), "count")
	r.metric("nullcheck.inserted", count(func(t *tally) int64 { return int64(t.static.Checks.Inserted) }), "count")
	r.metric("nullcheck.implicit", count(func(t *tally) int64 { return int64(t.static.Checks.Implicit) }), "count")
	r.metric("nullcheck.explicit_remaining", count(func(t *tally) int64 { return int64(t.static.Checks.ExplicitRemaining) }), "count")
	r.metric("ir.instrs_in", count(func(t *tally) int64 { return t.instrsIn }), "count")
	r.metric("ir.instrs_out", count(func(t *tally) int64 { return t.instrsOut }), "count")

	r.metric("machine.closure_ns_per_instr", nsPerInstr(all.self[spCallClosure], static.closureInstrs), "ns")
	r.metric("machine.switch_ns_per_instr", nsPerInstr(all.self[spCallSwitch], static.switchInstrs), "ns")
	r.metric("machine.instrs", count(func(t *tally) int64 { return t.exec.Instrs }), "count")
	r.metric("machine.explicit_checks", count(func(t *tally) int64 { return t.exec.ExplicitChecks }), "count")
	r.metric("machine.implicit_sites", count(func(t *tally) int64 { return t.exec.ImplicitSites }), "count")
	r.metric("machine.traps_taken", count(func(t *tally) int64 { return t.exec.TrapsTaken }), "count")
	r.metric("machine.calls", count(func(t *tally) int64 { return t.exec.Calls }), "count")
	r.metric("machine.tier_promotions", count(func(t *tally) int64 { return t.promotions }), "count")
	r.metric("machine.tier_deopts", count(func(t *tally) int64 { return t.deopts }), "count")
	r.metric("machine.tier_osr_entries", count(func(t *tally) int64 { return t.osr }), "count")
	r.metric("machine.tier_compile_ms", perPass(func(i int) float64 { return ms(traced[i].t.tierCompile) }), "ms")
	r.metric("machine.gov_demotions", count(func(t *tally) int64 { return t.demotions }), "count")
	r.metric("machine.gov_recompiles", count(func(t *tally) int64 { return t.recompiles }), "count")
	r.metric("machine.gov_compile_ms", perPass(func(i int) float64 { return ms(traced[i].t.govCompile) }), "ms")
	r.metric("machine.spec_compiler_ms", inclMS(spSpecCompiler), "ms")
	r.metric("machine.demote_compiler_ms", inclMS(spDemoteCompiler), "ms")

	// Accounting: each layer's self time per pass, what the layers leave of
	// the untraced wall time, and what tracing itself costs.
	untracedWall := medianOf(untraced, func(pr passResult) float64 { return ms(pr.wall) })
	tracedWall := medianOf(traced, func(pr passResult) float64 { return ms(pr.wall) })
	var accounted float64
	for _, layer := range layers {
		v := perPass(func(i int) float64 {
			var d time.Duration
			for n := spanName(0); n < numSpans; n++ {
				if spanInfo[n].layer == layer {
					d += traced[i].spans.self[n]
				}
			}
			return ms(d)
		})
		accounted += v
		r.metric(layer+".self_ms", v, "ms")
	}
	residual := untracedWall - accounted
	r.metric("bench.residual_ms", residual, "ms")
	r.metric("bench.gap_share", residual/untracedWall, "ratio")
	r.metric("bench.harness_ms", selfMS(spPass), "ms")
	r.metric("bench.untraced_wall_ms", untracedWall, "ms")
	r.metric("bench.trace_overhead_ms", tracedWall-untracedWall, "ms")
	r.metric("runtime.gc_cycles", medianOf(untraced, func(pr passResult) float64 { return float64(pr.gcs) }), "count")
	r.metric("runtime.gc_pause_ms", medianOf(untraced, func(pr passResult) float64 { return ms(pr.gcPause) }), "ms")
}

// tallyTotals sums what the per-call metrics need over every traced pass.
type tallyTotals struct {
	nullopt, other              time.Duration
	closureInstrs, switchInstrs int64
}

func (s *tallyTotals) add(t *tally) {
	s.nullopt += t.static.Times.NullCheckOpt
	s.other += t.static.Times.Other
	s.closureInstrs += t.closureInstrs
	s.switchInstrs += t.switchInstrs
}
