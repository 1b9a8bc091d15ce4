// Command perfbench is the repository's host-performance benchmark. It
// drives one workload in a closed loop on one worker, verifies every
// operation, and prints every metric by name with its unit; the last line of
// standard output is the result as one JSON object. See README.md.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload paper-sweep --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// workload is one benchmark workload.
type workload interface {
	// setup builds the inputs and the reference outcomes and warms the
	// process up; it is timed as setup_s.
	setup() error
	// pass runs every operation of the workload once.
	pass(p *probe, t *tally)
}

func newWorkload(name string, seed int64, quick bool) (workload, error) {
	switch name {
	case "paper-sweep":
		return &paperSweep{seed: seed, quick: quick}, nil
	case "compile-cold":
		return &compileCold{seed: seed, quick: quick}, nil
	case "adaptive-storm":
		return &adaptiveStorm{seed: seed, quick: quick}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want paper-sweep, compile-cold or adaptive-storm)", name)
}

const (
	// setups is how many times an end-to-end run sets up; setup_s is the
	// median.
	setups = 3
	// minPasses is the fewest measured passes of any run.
	minPasses = 3
)

func main() {
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: paper-sweep, compile-cold or adaptive-storm")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 20, "seconds of measured passes")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer metrics")
	out := fs.String("out", "", "directory for the result and span files (none when empty)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, err := newWorkload(*name, *seed, false)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	env := describe(".", *name, *seed, *trace == 1)
	budget := time.Duration(*seconds) * time.Second
	var r *result
	if *trace == 0 {
		r, err = endToEnd(wl, budget)
	} else {
		var p *probe
		r, p, err = traced(wl, budget)
		if err == nil && *out != "" {
			err = p.writeSpans(filepath.Join(*out, "spans-"+*name+".tsv"))
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	r.Env = env
	r.print(stdout)
	if *out != "" {
		path := filepath.Join(*out, fmt.Sprintf("result-%s-seed%d-trace%d.json", *name, *seed, *trace))
		if err := r.save(path); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	return 0
}

// passResult is one measured pass.
type passResult struct {
	t *tally
	// wall is the pass's host time on the driving thread's CPU clock: on
	// this single-threaded closed loop, the wall-clock time minus what the
	// OS or the hypervisor gave to anything else. clock is the plain
	// wall-clock time, reported as a note.
	wall    time.Duration
	clock   time.Duration
	alloc   uint64
	gcs     uint32
	gcPause time.Duration
	// spans sums the pass's span tree when traced.
	spans spanTotals
}

// onePass runs one pass from a freshly collected heap, locked to one OS
// thread so the probe's thread CPU clock times all of it. A traced probe
// keeps only the spans of its latest pass.
func onePass(wl workload, p *probe) passResult {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t := newTally()
	p.spans = p.spans[:0]
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	busy := p.timed(spPass, func() { wl.pass(p, t) })
	clock := time.Since(start)
	runtime.ReadMemStats(&after)
	return passResult{
		t:       t,
		wall:    busy,
		clock:   clock,
		alloc:   after.TotalAlloc - before.TotalAlloc,
		gcs:     after.NumGC - before.NumGC,
		gcPause: time.Duration(after.PauseTotalNs - before.PauseTotalNs),
		spans:   p.totals(),
	}
}

// endToEnd sets up several times, then measures untraced passes for the
// budget.
func endToEnd(wl workload, budget time.Duration) (*result, error) {
	// Set-up runs bench's own sweeps, whose workers are other goroutines,
	// so it is timed on the whole process's CPU clock.
	var setupS []float64
	for i := 0; i < setups; i++ {
		start := processCPU()
		if err := wl.setup(); err != nil {
			return nil, err
		}
		setupS = append(setupS, float64(processCPU()-start)/1e9)
	}
	p := newProbe(false)
	var passes []passResult
	for start := time.Now(); len(passes) < minPasses || time.Since(start) < budget; {
		passes = append(passes, onePass(wl, p))
	}
	r := newResult(passes)
	var compiles []float64
	for _, pr := range passes {
		for _, d := range pr.t.compiles {
			compiles = append(compiles, us(d))
		}
	}
	r.metric("wall_s", medianOf(passes, func(pr passResult) float64 { return pr.wall.Seconds() }), "s")
	r.metric("setup_s", median(setupS), "s")
	r.metric("compile_us_p50", quantile(compiles, 0.50), "us")
	r.metric("compile_us_p99", quantile(compiles, 0.99), "us")
	r.metric("sim_cycles", medianOf(passes, func(pr passResult) float64 { return float64(pr.t.simCycles) }), "count")
	r.metric("compile_to_peak_ms", medianOf(passes, func(pr passResult) float64 { return ms(pr.t.compileToPeak) }), "ms")
	r.metric("alloc_mb", medianOf(passes, func(pr passResult) float64 { return float64(pr.alloc) / 1e6 }), "MB")
	walls := make([]float64, len(passes))
	for i, pr := range passes {
		walls[i] = pr.wall.Seconds()
	}
	r.note("wall_q1_s", quantile(walls, 0.25), "s")
	r.note("wall_q3_s", quantile(walls, 0.75), "s")
	r.note("wall_clock_s", medianOf(passes, func(pr passResult) float64 { return pr.clock.Seconds() }), "s")
	// The live heap a collection sees depends on which operation it
	// happens to interrupt, so this swings by half between runs of
	// compile-cold: reported, not gated.
	r.note("peak_heap_mb", medianOf(passes, func(pr passResult) float64 { return float64(pr.t.peakHeap) / 1e6 }), "MB")
	r.note("compile_samples", float64(len(compiles)), "count")
	r.note("passes", float64(len(passes)), "count")
	r.note("error_rate", float64(r.Failed)/float64(r.Attempted), "ratio")
	return r, nil
}

// maxHarnessShare bounds the share of a traced pass that may run outside
// every layer span. Past it the spans miss real work and the traced run is
// not correct.
const maxHarnessShare = 0.10

// traced sets up once, checks the compile pass replica where the workload
// uses one, then alternates untraced and traced passes for the budget and
// derives the per-layer metrics.
func traced(wl workload, budget time.Duration) (*result, *probe, error) {
	if err := wl.setup(); err != nil {
		return nil, nil, err
	}
	var replicaErr error
	if cc, ok := wl.(*compileCold); ok {
		replicaErr = cc.checkReplica()
	}
	plain, p := newProbe(false), newProbe(true)
	var untraced, tracedPasses []passResult
	for start := time.Now(); len(tracedPasses) < minPasses || time.Since(start) < budget; {
		untraced = append(untraced, onePass(wl, plain))
		tracedPasses = append(tracedPasses, onePass(wl, p))
	}
	r := newResult(append(untraced, tracedPasses...))
	layerMetrics(r, untraced, tracedPasses)
	if replicaErr != nil {
		r.Correct = false
		r.problem("pass replica: " + replicaErr.Error())
	}
	tracedWall := r.value("bench.untraced_wall_ms") + r.value("bench.trace_overhead_ms")
	if share := r.value("bench.harness_ms") / tracedWall; share > maxHarnessShare {
		r.Correct = false
		r.problem(fmt.Sprintf("%.1f%% of the traced pass ran outside every layer span (bound %.0f%%)",
			100*share, 100*maxHarnessShare))
	}
	return r, p, nil
}

// result is one run's outcome.
type result struct {
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]measure `json:"metrics"`
	// Notes are reported but are not benchmark metrics; Problems explain a
	// run that is not correct; Env describes the machine and the tree.
	Notes    map[string]measure `json:"notes"`
	Problems []string           `json:"problems,omitempty"`
	Env      environment        `json:"env"`
	order    []string
}

type measure struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newResult(passes []passResult) *result {
	r := &result{Metrics: map[string]measure{}, Notes: map[string]measure{}}
	for _, pr := range passes {
		r.Attempted += pr.t.attempted
		r.Failed += pr.t.failed
		for _, f := range pr.t.failures {
			if len(r.Problems) < maxFailures {
				r.problem(f)
			}
		}
	}
	r.Correct = r.Failed == 0 && r.Attempted > 0
	return r
}

func (r *result) metric(name string, v float64, unit string) {
	r.Metrics[name] = measure{v, unit}
	r.order = append(r.order, name)
}

func (r *result) note(name string, v float64, unit string) { r.Notes[name] = measure{v, unit} }

func (r *result) value(name string) float64 { return r.Metrics[name].Value }

func (r *result) problem(s string) { r.Problems = append(r.Problems, s) }

// print writes one line per metric, then the environment, problems and
// notes, and finally the JSON summary line.
func (r *result) print(w io.Writer) {
	for _, name := range r.order {
		m := r.Metrics[name]
		fmt.Fprintf(w, "metric %-32s %14.6g %s\n", name, m.Value, m.Unit)
	}
	notes := make([]string, 0, len(r.Notes))
	for name := range r.Notes {
		notes = append(notes, name)
	}
	sort.Strings(notes)
	for _, name := range notes {
		m := r.Notes[name]
		fmt.Fprintf(w, "note   %-32s %14.6g %s\n", name, m.Value, m.Unit)
	}
	env, _ := json.Marshal(r.Env)
	fmt.Fprintf(w, "env %s\n", env)
	for _, pb := range r.Problems {
		fmt.Fprintf(w, "problem %s\n", pb)
	}
	summary, _ := json.Marshal(struct {
		Correct   bool               `json:"correct"`
		Attempted int64              `json:"attempted"`
		Failed    int64              `json:"failed"`
		Metrics   map[string]measure `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	fmt.Fprintf(w, "%s\n", summary)
}

func (r *result) save(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
