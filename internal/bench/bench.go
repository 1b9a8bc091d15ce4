// Package bench is the experiment harness: it runs every workload under
// every JIT configuration on the simulated machines and renders the rows of
// each table and the series of each figure in the paper's evaluation
// section (§5). Checksums are verified against the pure-Go references on
// every run, so the benchmark numbers can never come from broken code.
package bench

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"trapnull/internal/arch"
	"trapnull/internal/faultinject"
	"trapnull/internal/ir"
	"trapnull/internal/jit"
	"trapnull/internal/machine"
	"trapnull/internal/obs"
	"trapnull/internal/rt"
	"trapnull/internal/workloads"
)

// Cell is one (configuration, workload) measurement.
type Cell struct {
	Workload string
	Config   string
	// Cycles is the simulated execution cost; SimSeconds converts it at the
	// model's clock rate.
	Cycles     int64
	SimSeconds float64
	// Compile times are real (host) durations of our optimizer, split the
	// way Table 4 reports them.
	CompileNull  time.Duration
	CompileOther time.Duration
	// Exec counts dynamic events; Static summarizes the compile-side check
	// statistics.
	Exec   machine.ExecStats
	Static jit.Result
	// Err is the deterministic failure reason when this cell could not be
	// measured (compile error, pass panic, checksum mismatch, ...); the
	// measurement fields above are zero. A failed cell never aborts the
	// sweep — tables render it as ERROR(<reason>).
	Err string

	// Fates is the null-check fate histogram of the cell's compilation; nil
	// unless Options.Remarks. Profile is the hot-block execution summary;
	// nil unless Options.Profile. Both are deterministic (fixed-order
	// structs, sorted slices) so they extend the sweep's determinism
	// contract.
	Fates   *obs.FateCounts
	Profile *obs.ProfileSummary
	// Attr is the per-trap-site cycle ledger (implicit / explicit / trap /
	// guard-free buckets summing exactly to Cycles); nil unless
	// Options.Timeline. Deterministic like Fates and Profile.
	Attr *obs.Attribution
	// remarks backs Fates with the full per-method ledgers (hot-block
	// overlays and renderers use it); not serialized.
	remarks *obs.Remarks
}

// Failed reports whether the cell is an error entry.
func (c *Cell) Failed() bool { return c.Err != "" }

// ErrText renders the deterministic table text for a failed cell.
func (c *Cell) ErrText() string { return "ERROR(" + c.Err + ")" }

// CompileTotal returns the whole compile time for the cell.
func (c *Cell) CompileTotal() time.Duration { return c.CompileNull + c.CompileOther }

// Matrix holds the cells of one (model, config set, workload set) sweep.
type Matrix struct {
	Model     *arch.Model
	Configs   []jit.Config
	Workloads []*workloads.Workload
	Quick     bool
	// Cells is indexed [config name][workload name].
	Cells map[string]map[string]*Cell
}

// Cell returns the measurement for (config, workload).
func (m *Matrix) Cell(config, workload string) *Cell {
	if row, ok := m.Cells[config]; ok {
		return row[workload]
	}
	return nil
}

// Options tunes a sweep.
type Options struct {
	// Quick selects the small problem sizes (used by tests).
	Quick bool
	// Parallelism bounds how many (config, workload) cells run
	// concurrently: 0 means GOMAXPROCS, 1 forces the serial sweep. Every
	// cell gets its own Machine and Heap, and each cell's one compilation
	// runs start-to-finish on its own goroutine, so per-phase compile
	// accounting (Tables 3–5) stays valid.
	Parallelism int

	// CompileCache is ignored: every cell compiles its own freshly built
	// program once, and a sweep's compilations are all distinct. The field
	// and CacheOn remain so existing callers still compile.
	CompileCache CacheSetting

	// Trace, when non-nil, collects Chrome trace-event spans: one lane per
	// cell, a cell span wrapping the measured compile and run, pass and
	// function spans nested inside (benchtab -trace).
	Trace *obs.Trace
	// Remarks attaches a fate ledger to every cell's final compilation and
	// fills Cell.Fates (benchtab -remarks; JSON check_fates).
	Remarks bool
	// Profile counts block entries during every cell's run and fills
	// Cell.Profile (benchtab -profile; JSON profile).
	Profile bool

	// Timeline, when non-nil, attaches trap-cost attribution to every
	// untiered cell's machine and merges each cell's decision log and cycle
	// ledger into it (benchtab -timeline). When Trace is set, with or
	// without a timeline, the logged decisions appear as instant markers on
	// the cell's trace lane.
	Timeline *obs.Timeline
	// Metrics, when non-nil, receives the sweep's counters after assembly
	// (benchtab -metrics): engine, static-check and attribution totals,
	// published in fixed registration order so the deterministic
	// snapshot of the same sweep is byte-identical at any parallelism.
	Metrics *obs.Registry

	// CellTimeout, when positive, bounds each cell's wall-clock measurement
	// (benchtab -cell-timeout). A cell that exceeds it is cancelled
	// cooperatively — the machine's abort flag is raised and polled at block
	// entry — and renders as the deterministic ERROR(timeout) entry instead
	// of hanging the sweep.
	CellTimeout time.Duration
	// Inject attaches a deterministic fault-injection schedule to the sweep
	// (benchtab -chaos): seeded compile-pass panics and engine step faults,
	// both keyed on semantic coordinates so the same seed reproduces the
	// same faults byte-for-byte at any parallelism.
	Inject *faultinject.Injector
}

// CacheSetting is the type of the ignored Options.CompileCache field.
type CacheSetting uint8

// CacheOn is the one remaining CacheSetting value; like the field, it has no
// effect.
const CacheOn CacheSetting = 1

// observed reports whether a cell's compile needs an observer.
func (o Options) observed() bool { return o.Trace != nil || o.Remarks }

func (o Options) workers(total int) int {
	n := o.Parallelism
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > total {
		n = total
	}
	if n < 1 {
		n = 1
	}
	return n
}

// Run sweeps configs × workloads on the model, fanning cells out to a
// bounded worker pool. Results land in slots pre-sized by (config, workload)
// index, so the assembled matrix — and everything rendered from it — is
// identical to the serial sweep regardless of completion order.
//
// A failing cell — compile error, contained pass panic, run failure,
// checksum mismatch, even a panicking workload builder — never aborts the
// sweep: it becomes an error entry (Cell.Err) and every other cell is still
// measured. When any cell failed, the returned error lists all failures in
// declaration order (deterministic regardless of worker count) alongside the
// complete matrix, so callers can render the partial results and still exit
// non-zero.
func Run(model *arch.Model, configs []jit.Config, ws []*workloads.Workload, opts Options) (*Matrix, error) {
	// Pre-register the metric set so the snapshot's order is fixed before
	// any worker touches a counter.
	registerSweepMetrics(opts.Metrics)
	m := &Matrix{
		Model:     model,
		Configs:   configs,
		Workloads: ws,
		Quick:     opts.Quick,
		Cells:     make(map[string]map[string]*Cell),
	}

	var specs []cellSpec
	for _, cfg := range configs {
		m.Cells[cfg.Name] = make(map[string]*Cell, len(ws))
		for _, w := range ws {
			specs = append(specs, cellSpec{model: model, cfg: cfg, w: w, name: cfg.Name + "/" + w.Name, reps: 1})
		}
	}
	measured, err := sweep(specs, opts)
	for i, s := range specs {
		c := newCell(s, measured[i])
		m.Cells[s.cfg.Name][s.w.Name] = c
		publishCellMetrics(opts.Metrics, c)
	}
	return m, err
}

// newCell projects a measurement of the paper sweep into its Cell.
func newCell(s cellSpec, ms *measurement) *Cell {
	c := &Cell{Workload: s.w.Name, Config: s.cfg.Name, Err: ms.err}
	if c.Failed() {
		return c
	}
	st := ms.stats
	c.Cycles = ms.cycles
	c.SimSeconds = float64(c.Cycles) / float64(s.model.ClockHz)
	res := ms.res
	c.CompileNull, c.CompileOther = res.Times.NullCheckOpt, res.Times.Other
	c.Exec, c.Static, c.Attr = st, *res, ms.attr
	if rem := ms.remarks; rem != nil {
		fc := rem.Totals()
		c.Fates, c.remarks = &fc, rem
	}
	if ms.prof != nil {
		c.Profile = ms.prof.Summary(hotBlockTopN, ms.remarks, st.TrapsTaken, st.ExplicitChecks, st.ImplicitSites)
	}
	return c
}

// failReason maps a cell failure to its deterministic table text: structured
// pass errors render through PassError.Reason (stable across runs and worker
// counts — no addresses, stacks or timings), everything else through its
// error string.
func failReason(err error) string {
	var pe *jit.PassError
	if errors.As(err, &pe) {
		return pe.Reason()
	}
	return err.Error()
}

// cellSpec is one cell of a sweep: workload w compiled under cfg for model,
// on a machine set up for policy ("" for the paper's static configurations),
// invoked reps times.
type cellSpec struct {
	model  *arch.Model
	cfg    jit.Config
	w      *workloads.Workload
	policy string
	// name is "<config or policy>/<workload>": the cell's trace lane, its
	// timeline section (after the model name) and its failure-list entry.
	name string
	reps int
}

// recompile is the cell's policy recompiler: it builds the workload afresh
// and compiles it under the speculation or demote set co carries.
func (s cellSpec) recompile(co jit.CompileOptions) (*ir.Program, error) {
	p, _ := s.w.Build()
	if _, err := jit.CompileProgramWith(p, s.cfg, s.model, co); err != nil {
		return nil, err
	}
	return p, nil
}

// measurement is what measureCell observed of one cell. Each sweep projects
// it into its own cell type; a failed measurement carries only err.
type measurement struct {
	err string
	// res and remarks are the compile result and fate ledger (nil unless
	// Options.Remarks) of the program that ran.
	res     *jit.Result
	remarks *obs.Remarks
	prof    *obs.ExecProfile
	attr    *obs.Attribution
	// The machine's totals, adaptive reports and decision log; the machine
	// itself is dropped with the cell.
	cycles    int64
	stats     machine.ExecStats
	tier      machine.TierReport
	gov       machine.GovernorReport
	decisions []obs.RecEvent
	// Cycles of invocation 1, of the last invocation and of all of them,
	// and the last invocation's hardware traps and explicit checks.
	first, steady, total      int64
	steadyTraps, steadyChecks int64
	// toPeak is host time spent compiling before the peak tier could run:
	// the initial compile plus the policy's up-front closure compiles.
	toPeak time.Duration
}

// sweep measures every spec on the bounded worker pool — each cell under
// the optional CellTimeout deadline — and returns the measurements in spec
// order, with an error listing every failed cell in that same order.
func sweep(specs []cellSpec, opts Options) ([]*measurement, error) {
	out := make([]*measurement, len(specs))
	jobs := make(chan int, len(specs))
	for i := range specs {
		jobs <- i
	}
	close(jobs)
	var wg sync.WaitGroup
	for i := 0; i < opts.workers(len(specs)); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				out[j] = runCell(specs[j], opts)
			}
		}()
	}
	wg.Wait()

	var failures []string
	for i, ms := range out {
		if ms.err != "" {
			failures = append(failures, specs[i].name+": "+ms.err)
		}
	}
	if len(failures) > 0 {
		return out, fmt.Errorf("bench: %d cell(s) failed:\n  %s", len(failures), strings.Join(failures, "\n  "))
	}
	return out, nil
}

// runCell wraps measureCell with the optional wall-clock deadline. The cell
// runs on its own goroutine; on timeout the machine's abort flag is raised
// and the wrapper waits for the cooperative cancel (block-entry polls) so the
// cell has stopped touching shared state — the timeline and metrics above
// all — before the deterministic ERROR(timeout) entry replaces whatever it
// was measuring.
func runCell(s cellSpec, opts Options) *measurement {
	if opts.CellTimeout <= 0 {
		return measureCell(s, opts, nil)
	}
	abort := new(atomic.Bool)
	done := make(chan *measurement, 1)
	go func() { done <- measureCell(s, opts, abort) }()
	timer := time.NewTimer(opts.CellTimeout)
	defer timer.Stop()
	select {
	case ms := <-done:
		return ms
	case <-timer.C:
		abort.Store(true)
		<-done
		return &measurement{err: "timeout"}
	}
}

// measureCell is the one cell measurement of every sweep: build the
// workload, compile it, set the machine up for the cell's policy, and invoke
// the entry s.reps times on that machine, checking every invocation against
// the pure-Go reference checksum. It never fails the sweep: any error —
// including a panic out of the workload builder, the compiler or the
// simulated machine — degrades to a measurement carrying only err. abort,
// when non-nil, is the cooperative cancellation flag runCell raises.
func measureCell(s cellSpec, opts Options, abort *atomic.Bool) (ms *measurement) {
	defer func() {
		if r := recover(); r != nil {
			ms = &measurement{err: fmt.Sprintf("panic: %v", r)}
		}
	}()
	fail := func(reason string) *measurement { return &measurement{err: reason} }
	ms = &measurement{}

	n := s.w.N
	if opts.Quick {
		n = s.w.TestN
	}
	var tid int64
	var cellStart time.Time
	if opts.Trace != nil {
		tid = opts.Trace.NextTID()
		cellStart = time.Now()
	}

	// Compile the freshly built program once, in place; that program runs,
	// so remarks and trace spans describe exactly the program the
	// measurements come from. Policy cells compile unobserved: their
	// compile-to-peak column is host time that pass spans would inflate.
	observe := opts.observed() && s.policy == ""
	p, entryM := s.w.Build()
	var co jit.CompileOptions
	// Injected pass faults key on the compilation's content identity, not
	// the cell, so the schedule names what was compiled.
	if opts.Inject != nil {
		co.PassFault = opts.Inject.PassFault(jit.Key(p, s.cfg, s.model).ID())
	}
	if observe {
		co.Observer = &jit.Observer{Trace: opts.Trace, TID: tid}
		if opts.Remarks {
			ms.remarks = obs.NewRemarks()
			co.Observer.Remarks = ms.remarks
		}
	}
	start := time.Now()
	res, err := jit.CompileProgramWith(p, s.cfg, s.model, co)
	ms.toPeak = time.Since(start)
	if err != nil {
		return fail(failReason(err))
	}
	ms.res = res
	mach := machine.New(s.model, p)
	mach.Abort = abort
	if opts.Profile {
		ms.prof = obs.NewExecProfile()
		mach.Profile = ms.prof
	}
	// A timeline carries the untiered policies' trap-cost ledgers too.
	if opts.Timeline != nil && !adaptive(s.policy) {
		mach.EnableAttribution()
	}
	if opts.Inject != nil {
		if step, ok := opts.Inject.StepFault(s.model.Name + "/" + s.name); ok {
			mach.InjectStepFault(step, s.name)
		}
	}
	ms.toPeak += setupPolicy(s.policy, mach, opts.Quick, s.recompile)

	want := s.w.Ref(n)
	var wins []repWindow
	var reason string
	for rep := 0; rep < s.reps && reason == ""; rep++ {
		st := mach.Stats
		before, steps := mach.Cycles, mach.Steps()
		start := time.Now()
		out, err := mach.Call(entryM.Fn, n)
		d := mach.Cycles - before
		if opts.Trace != nil {
			dur := time.Since(start)
			name := "run " + s.name
			if s.reps > 1 {
				name = fmt.Sprintf("%s inv %d", s.name, rep+1)
			}
			opts.Trace.Span(tid, "exec", name, start, dur,
				map[string]any{"cycles": d, "instrs": mach.Stats.Instrs - st.Instrs})
			wins = append(wins, repWindow{start, dur, steps, mach.Steps()})
		}
		switch {
		case err != nil:
			reason = failReason(err)
		case out.Exc != rt.ExcNone:
			reason = fmt.Sprintf("unexpected exception %v", out.Exc)
		case out.Value != want && s.reps > 1:
			reason = fmt.Sprintf("checksum mismatch on rep %d: got %d, want %d", rep, out.Value, want)
		case out.Value != want:
			reason = fmt.Sprintf("checksum mismatch: got %d, want %d", out.Value, want)
		}
		if rep == 0 {
			ms.first = d
		}
		ms.steady, ms.total = d, ms.total+d
		ms.steadyTraps = mach.Stats.TrapsTaken - st.TrapsTaken
		ms.steadyChecks = mach.Stats.ExplicitChecks - st.ExplicitChecks
	}
	if opts.Trace != nil {
		opts.Trace.Span(tid, "cell", s.name, cellStart, time.Since(cellStart), nil)
	}
	// Publish before failing: a cell that errored (an injected fault, say)
	// still lands its decision log in the timeline — that is what the
	// chaos fire markers are for.
	ms.attr, ms.decisions = mach.CycleAttribution(), mach.Decisions()
	publishTimeline(opts.Timeline, opts.Trace, s.model.Name+"/"+s.name, ms.decisions, ms.attr, tid, wins)
	if reason != "" {
		return fail(reason)
	}
	ms.cycles, ms.stats = mach.Cycles, mach.Stats
	ms.tier, ms.gov = mach.TierReport(), mach.GovernorReport()
	return ms
}

// hotBlockTopN bounds the per-cell hot-block report.
const hotBlockTopN = 10

// Index is the jBYTEmark-style score: iterations of the reference machine
// per simulated second (larger is better).
func (c *Cell) Index() float64 {
	if c.SimSeconds == 0 {
		return 0
	}
	return 1.0 / c.SimSeconds
}

// SimMillis returns the SPECjvm98-style time metric (smaller is better).
func (c *Cell) SimMillis() float64 { return c.SimSeconds * 1000 }

// Report bundles the four sweeps that feed every table and figure.
type Report struct {
	WinJB   *Matrix // Table 1, Figures 8/10
	WinSpec *Matrix // Tables 2–5, Figures 9/11/12/13
	AIXJB   *Matrix // Table 6, Figure 14
	AIXSpec *Matrix // Table 7, Figure 15
}

// RunAll produces the full report. All four sweeps run to completion even
// when cells fail; the returned error (if any) joins each sweep's failure
// list, and the report is always non-nil so partial results can be rendered.
func RunAll(opts Options) (*Report, error) {
	var errs []error
	sweep := func(m *Matrix, err error) *Matrix {
		if err != nil {
			errs = append(errs, err)
		}
		return m
	}
	rep := &Report{
		WinJB:   sweep(Run(arch.IA32Win(), jit.WindowsConfigs(), workloads.JBYTEmark(), opts)),
		WinSpec: sweep(Run(arch.IA32Win(), jit.WindowsConfigs(), workloads.SPECjvm98(), opts)),
		AIXJB:   sweep(Run(arch.PPCAIX(), jit.AIXConfigs(), workloads.JBYTEmark(), opts)),
		AIXSpec: sweep(Run(arch.PPCAIX(), jit.AIXConfigs(), workloads.SPECjvm98(), opts)),
	}
	return rep, errors.Join(errs...)
}
