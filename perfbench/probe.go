package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// spanName identifies one public function of one layer that the benchmark
// times from outside. Every span the benchmark records carries one of these.
type spanName uint8

const (
	spPass spanName = iota // one whole pass: the root of every span tree
	spBuild
	spRef
	spGen
	spKey
	spCacheGet
	spCompile
	spSites
	spInline
	spRotate
	spCopyProp
	spConstFold
	spBoundElim
	spScalar
	spCSE
	spDCE
	spSimplifyCFG
	spPhase1
	spPhase2
	spWhaley
	spTrapConvert
	spTrapFold
	spCheckGuards
	spValidate
	spMachNew
	spPrecompile
	spCallClosure
	spCallSwitch
	spCallTiered
	spSpecCompiler
	spDemoteCompiler
	numSpans
)

// spanInfo names a span and the layer its self time is billed to.
var spanInfo = [numSpans]struct{ name, layer string }{
	spPass:           {"bench.pass", "bench"},
	spBuild:          {"workloads.build", "workloads"},
	spRef:            {"workloads.ref", "workloads"},
	spGen:            {"randprog.gen", "randprog"},
	spKey:            {"jit.key", "jit"},
	spCacheGet:       {"jit.cache_get", "jit"},
	spCompile:        {"jit.compile", "jit"},
	spSites:          {"jit.number_sites", "jit"},
	spInline:         {"opt.inline", "opt"},
	spRotate:         {"opt.rotate", "opt"},
	spCopyProp:       {"opt.copyprop", "opt"},
	spConstFold:      {"opt.constfold", "opt"},
	spBoundElim:      {"opt.boundelim", "opt"},
	spScalar:         {"opt.scalar", "opt"},
	spCSE:            {"opt.cse", "opt"},
	spDCE:            {"opt.dce", "opt"},
	spSimplifyCFG:    {"opt.simplifycfg", "opt"},
	spPhase1:         {"nullcheck.phase1", "nullcheck"},
	spPhase2:         {"nullcheck.phase2", "nullcheck"},
	spWhaley:         {"nullcheck.whaley", "nullcheck"},
	spTrapConvert:    {"nullcheck.trapconvert", "nullcheck"},
	spTrapFold:       {"nullcheck.trapfold", "nullcheck"},
	spCheckGuards:    {"nullcheck.checkguards", "nullcheck"},
	spValidate:       {"ir.validate", "ir"},
	spMachNew:        {"machine.new", "machine"},
	spPrecompile:     {"machine.precompile", "machine"},
	spCallClosure:    {"machine.call_closure", "machine"},
	spCallSwitch:     {"machine.call_switch", "machine"},
	spCallTiered:     {"machine.call_tiered", "machine"},
	spSpecCompiler:   {"machine.spec_compiler", "machine"},
	spDemoteCompiler: {"machine.demote_compiler", "machine"},
}

// span is one timed call: start and end read the driving thread's CPU clock
// in nanoseconds, parent is the index of the enclosing span (-1 for a root).
// The struct holds no pointers, so a long span log costs the collector
// nothing.
type span struct {
	name       spanName
	parent     int32
	start, end int64
}

// probe is the benchmark's timing wrapper around every layer call. Untraced,
// a call goes straight through; traced, it records a span. Compile latency is
// timed in both modes, because the end-to-end compile percentiles come from
// the untraced run. Every time is read from the calling thread's CPU clock
// (threadCPU), so the goroutine driving a probe must stay locked to its OS
// thread while it times anything.
type probe struct {
	tracing bool
	spans   []span
	open    int32 // index of the innermost open span, -1 when none
	// slow plants a proportional delay inside a span: the call is followed by
	// a busy wait of slow[n] times its own duration, as if that layer were
	// that much slower. Only the self-tests set it.
	slow [numSpans]float64
}

func newProbe(tracing bool) *probe {
	return &probe{tracing: tracing, open: -1}
}

func (p *probe) now() int64 { return threadCPU() }

// enter opens a span when tracing and returns its start time and index.
func (p *probe) enter(n spanName) (int64, int32) {
	start := p.now()
	if !p.tracing {
		return start, -1
	}
	idx := int32(len(p.spans))
	p.spans = append(p.spans, span{name: n, parent: p.open, start: start})
	p.open = idx
	return start, idx
}

// leave applies any planted delay, closes the span opened by enter and
// returns the call's duration.
func (p *probe) leave(n spanName, start int64, idx int32) time.Duration {
	end := p.now()
	if s := p.slow[n]; s > 0 {
		until := end + int64(float64(end-start)*s)
		for end < until {
			end = p.now()
		}
	}
	if idx >= 0 {
		p.spans[idx].end = end
		p.open = p.spans[idx].parent
	}
	return time.Duration(end - start)
}

// do runs f inside span n.
func (p *probe) do(n spanName, f func()) {
	if !p.tracing && p.slow[n] == 0 {
		f()
		return
	}
	start, idx := p.enter(n)
	f()
	p.leave(n, start, idx)
}

// timed runs f inside span n and always returns its duration.
func (p *probe) timed(n spanName, f func()) time.Duration {
	start, idx := p.enter(n)
	f()
	return p.leave(n, start, idx)
}

// spanTotals sums spans per name: inclusive time, self time (a span's
// duration minus its children's) and call count.
type spanTotals struct {
	incl, self [numSpans]time.Duration
	calls      [numSpans]int64
}

// totals folds the recorded spans into per-name totals.
func (p *probe) totals() spanTotals {
	var st spanTotals
	for i := range p.spans {
		s := p.spans[i]
		d := time.Duration(s.end - s.start)
		st.incl[s.name] += d
		st.self[s.name] += d
		st.calls[s.name]++
		if s.parent >= 0 {
			st.self[p.spans[s.parent].name] -= d
		}
	}
	return st
}

// writeSpans writes the recorded spans — those of the latest pass — as
// tab-separated name, start_ns, end_ns, parent_index lines.
func (p *probe) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "# name\tstart_ns\tend_ns\tparent")
	for _, s := range p.spans {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\n", spanInfo[s.name].name, s.start, s.end, s.parent)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
