// Command nulljit compiles and runs one workload under one JIT
// configuration, printing the optimized IR of the entry function, the
// compile-side statistics, and the simulated execution profile. It is the
// inspection tool for understanding what each configuration did to a
// program.
//
// Usage:
//
//	nulljit -workload Assignment -config full -arch ia32 -print
//	nulljit -trace out.json       # Chrome trace of compile passes + execution
//	nulljit -remarks              # per-method null check fate ledger
//	nulljit -profile              # hot-block execution profile
//	nulljit -tier -tier-reps 4    # tiered adaptive execution with event log
//	                              # (takes only -workload, -config, -arch, -n,
//	                              # -tier-reps, -timeline and -cpuprofile)
//	nulljit -list
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"trapnull/internal/arch"
	"trapnull/internal/bench"
	"trapnull/internal/codegen"
	"trapnull/internal/ir"
	"trapnull/internal/jasm"
	"trapnull/internal/jit"
	"trapnull/internal/machine"
	"trapnull/internal/obs"
	"trapnull/internal/rt"
	"trapnull/internal/workloads"
)

// shortConfigs maps the -config short names to configuration names, in the
// order the help lists them.
var shortConfigs = []struct{ short, long string }{
	{"notrap", "NoNullOpt(NoTrap)"},
	{"trap", "NoNullOpt(Trap)"},
	{"old", "OldNullCheck"},
	{"phase1", "NewNullCheck(Phase1)"},
	{"full", "NewNullCheck(Phase1+2)"},
	{"hotspot", "HotSpotSim"},
	{"spec", "Speculation"},
	{"nospec", "NoSpeculation"},
	{"aixbase", "NoNullCheckOpt"},
	{"illegal", "IllegalImplicit(NoSpec)"},
	{"writeimpl", "WriteImplicit(Spec)"},
}

// shortConfigNames joins the -config short names with sep.
func shortConfigNames(sep string) string {
	names := make([]string, len(shortConfigs))
	for i, c := range shortConfigs {
		names[i] = c.short
	}
	return strings.Join(names, sep)
}

// configByName resolves a -config value: a short name from shortConfigs, or
// any configuration name jit.ConfigByName accepts.
func configByName(name string) (jit.Config, error) {
	for _, c := range shortConfigs {
		if strings.EqualFold(name, c.short) {
			name = c.long
			break
		}
	}
	if c, ok := jit.ConfigByName(name); ok {
		return c, nil
	}
	return jit.Config{}, fmt.Errorf("unknown config %q (try one of %s)", name, shortConfigNames(", "))
}

func main() {
	var (
		file   = flag.String("file", "", "run a .jasm program instead of a workload (entry func: main)")
		wname  = flag.String("workload", "Assignment", "workload name (see -list)")
		cname  = flag.String("config", "full", "configuration ("+shortConfigNames("|")+")")
		aname  = flag.String("arch", "ia32", "architecture model (ia32|aix|sparc)")
		n      = flag.Int64("n", 0, "problem size (0 = workload default)")
		pr     = flag.Bool("print", false, "print the optimized entry function IR")
		asm    = flag.Bool("asm", false, "print the lowered machine listing with cycle costs")
		dump   = flag.Bool("dump", false, "print the whole optimized program as jasm source")
		list   = flag.Bool("list", false, "list workloads and exit")
		before = flag.Bool("print-before", false, "print the unoptimized entry function IR")
		prof   = flag.String("cpuprofile", "", "write a CPU profile of compile+run to this file")

		traceOut = flag.String("trace", "", "write a Chrome trace-event JSON (pass spans + execution) to this file")
		remarks  = flag.Bool("remarks", false, "print the per-method null check fate ledger")
		profile  = flag.Bool("profile", false, "print the hot-block execution profile")
		timeline = flag.Bool("timeline", false, "print the adaptive-decision timeline and per-trap-site cycle attribution")
		metrics  = flag.Bool("metrics", false, "print the deterministic telemetry metrics snapshot")
		tier     = flag.Bool("tier", false, "run tiered adaptive execution (interpreter -> closure -> speculative) and print the promotion/deopt event log")
		tierReps = flag.Int("tier-reps", 4, "invocations of the tiered run; the last is steady state")
	)
	flag.Parse()

	if *prof != "" {
		f, err := os.Create(*prof)
		fail(err)
		fail(pprof.StartCPUProfile(f))
		defer pprof.StopCPUProfile()
	}

	if *list {
		for _, w := range workloads.All() {
			fmt.Printf("%-20s %-10s N=%d\n", w.Name, w.Suite, w.N)
		}
		return
	}

	cfg, err := configByName(*cname)
	fail(err)
	model, err := arch.ByName(*aname)
	fail(err)

	if *tier {
		// The tiered run reads only the flags below; refuse the rest rather
		// than silently ignore them.
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "tier", "tier-reps", "timeline", "workload", "config", "arch", "n", "cpuprofile":
			case "file":
				fail(fmt.Errorf("-tier needs a rebuildable program; use -workload, not -file"))
			default:
				fail(fmt.Errorf("-tier does not support -%s", f.Name))
			}
		})
		runTiered(*wname, cfg, model, *n, *tierReps, *timeline)
		return
	}

	var prog *ir.Program
	var entryFn *ir.Func
	var ref func(int64) int64
	size := *n

	if *file != "" {
		src, err := os.ReadFile(*file)
		fail(err)
		parsed, funcs, err := jasm.Parse(string(src))
		fail(err)
		if funcs["main"] == nil {
			fail(fmt.Errorf("%s defines no func main", *file))
		}
		prog = parsed
		entryFn = funcs["main"]
	} else {
		w, err := workloads.ByName(*wname)
		fail(err)
		if size == 0 {
			size = w.N
		}
		p, entryM := w.Build()
		prog = p
		entryFn = entryM.Fn
		ref = w.Ref
	}
	if *before {
		fmt.Println("=== before optimization ===")
		fmt.Print(entryFn.String())
	}

	// Observability: build an Observer only when a -trace/-remarks/-profile
	// flag asks for one, so the default path stays the unobserved compile.
	var tr *obs.Trace
	var rem *obs.Remarks
	var ob *jit.Observer
	if *traceOut != "" {
		tr = obs.NewTrace()
	}
	if *remarks || *profile {
		rem = obs.NewRemarks()
	}
	if tr != nil || rem != nil {
		ob = &jit.Observer{Trace: tr, Remarks: rem}
		if tr != nil {
			ob.TID = tr.NextTID()
		}
	}

	res, err := jit.CompileProgramWith(prog, cfg, model, jit.CompileOptions{Observer: ob})
	fail(err)

	if *pr {
		fmt.Println("=== after optimization ===")
		fmt.Print(entryFn.String())
	}
	if *asm {
		fmt.Println("=== lowered listing ===")
		fmt.Print(codegen.Lower(entryFn, model).String())
	}
	if *dump {
		fmt.Print(jasm.Format(prog))
	}

	label := *wname
	if *file != "" {
		label = *file
	}

	m := machine.New(model, prog)
	var execProf *obs.ExecProfile
	if *profile {
		execProf = obs.NewExecProfile()
		m.Profile = execProf
	}
	var rec *obs.Recorder
	if *timeline {
		rec = obs.NewRecorder()
		m.Recorder = rec
		m.EnableAttribution()
	}
	var out machine.Outcome
	execStart := time.Now()
	if entryFn.NumParams > 0 {
		out, err = m.Call(entryFn, size)
	} else {
		out, err = m.Call(entryFn)
	}
	if tr != nil {
		tr.Span(ob.TID, "exec", "run "+label, execStart, time.Since(execStart),
			map[string]any{"cycles": m.Cycles, "instrs": m.Stats.Instrs})
		fail(tr.WriteFile(*traceOut))
		fmt.Fprintf(os.Stderr, "nulljit: wrote %d trace events to %s\n", len(tr.Events()), *traceOut)
	}
	fail(err)

	// A workload's run must return its reference checksum; a wrong value or
	// an exception is a miscompile, reported after the full output.
	var verdict error
	fmt.Printf("program     %s (n=%d) on %s under %s\n", label, size, model.Name, cfg.Name)
	if out.Exc != rt.ExcNone {
		fmt.Printf("exception   %v\n", out.Exc)
		if ref != nil {
			verdict = fmt.Errorf("unexpected exception %v", out.Exc)
		}
	} else if ref != nil {
		want := ref(size)
		status := "OK"
		if out.Value != want {
			status = fmt.Sprintf("MISMATCH (want %d)", want)
			verdict = fmt.Errorf("checksum mismatch: got %d, want %d", out.Value, want)
		}
		fmt.Printf("checksum    %d  [%s]\n", out.Value, status)
	} else {
		fmt.Printf("result      %d\n", out.Value)
	}
	fmt.Printf("cycles      %d  (%.3f sim ms at %d MHz)\n",
		m.Cycles, float64(m.Cycles)/float64(model.ClockHz)*1000, model.ClockHz/1_000_000)
	fmt.Printf("compile     nullcheck-opt %v, other %v\n", res.Times.NullCheckOpt, res.Times.Other)
	fmt.Printf("static      eliminated=%d inserted=%d implicit=%d explicit-left=%d\n",
		res.Checks.Eliminated, res.Checks.Inserted, res.Checks.Implicit, res.Checks.ExplicitRemaining)
	fmt.Printf("inline      devirtualized=%d inlined=%d intrinsified=%d\n",
		res.Inline.Devirtualized, res.Inline.Inlined, res.Inline.Intrinsified)
	fmt.Printf("scalar      cse=%d hoisted=%d promoted=%d speculated=%d boundchecks-removed=%d\n",
		res.Scalar.CSE, res.Scalar.Hoisted, res.Scalar.Promoted, res.Scalar.Speculated, res.BoundChecksRemoved)
	fmt.Printf("dynamic     instrs=%d explicit-checks=%d implicit-sites=%d boundchecks=%d loads=%d stores=%d calls=%d traps=%d\n",
		m.Stats.Instrs, m.Stats.ExplicitChecks, m.Stats.ImplicitSites, m.Stats.BoundChecks,
		m.Stats.Loads, m.Stats.Stores, m.Stats.Calls, m.Stats.TrapsTaken)

	if *remarks {
		var sb strings.Builder
		rem.Render(&sb)
		fmt.Print(sb.String())
		if t := rem.Totals(); !t.Conserved() || rem.Conflicts() > 0 {
			fail(fmt.Errorf("fate conservation violated: tracked=%d fated=%d lost=%d conflicts=%d",
				t.Tracked(), t.Fated(), t.Lost, rem.Conflicts()))
		}
	}
	if *profile {
		sum := execProf.Summary(10, rem, m.Stats.TrapsTaken, m.Stats.ExplicitChecks, m.Stats.ImplicitSites)
		var sb strings.Builder
		sum.Render(&sb)
		fmt.Print(sb.String())
	}
	if *timeline {
		tl := obs.NewTimeline()
		tl.Add(label, rec, m.CycleAttribution())
		fmt.Print(tl.Render())
	}
	if *metrics {
		fmt.Print(bench.RunMetrics(bench.RunCounters{Exec: m.Stats, Checks: res.Checks,
			Cycles: m.Cycles, Attr: m.CycleAttribution()}).RenderText(false))
	}
	fail(verdict)
}

// runTiered executes one workload on a tiered machine — full ladder, with a
// speculative recompiler that rebuilds and recompiles the workload — and
// prints the per-invocation cycle deltas, the promotion/deopt event log, and
// the speculation blacklist. The checksum is verified on every invocation; a
// failed one exits non-zero after the full output.
func runTiered(wname string, cfg jit.Config, model *arch.Model, n int64, reps int, timeline bool) {
	w, err := workloads.ByName(wname)
	fail(err)
	size := n
	if size == 0 {
		size = w.N
	}
	if reps < 1 {
		reps = 1
	}

	compile := func(mask map[string][]int) (*ir.Program, error) {
		p, _ := w.Build()
		if _, err := jit.CompileProgramWith(p, cfg, model, jit.CompileOptions{Spec: mask}); err != nil {
			return nil, err
		}
		return p, nil
	}

	prog, entryM := w.Build()
	_, err = jit.CompileProgram(prog, cfg, model)
	fail(err)

	m := machine.New(model, prog)
	var rec *obs.Recorder
	if timeline {
		rec = obs.NewRecorder()
		m.Recorder = rec
	}
	m.EnableTiering(machine.DefaultTierPolicy(), compile)

	fmt.Printf("program     %s (n=%d) on %s under %s, tiered (%d invocations)\n",
		w.Name, size, model.Name, cfg.Name, reps)
	want := w.Ref(size)
	var verdict error
	for rep := 0; rep < reps; rep++ {
		before := m.Cycles
		out, err := m.Call(entryM.Fn, size)
		fail(err)
		status := "OK"
		if out.Exc != rt.ExcNone {
			status = fmt.Sprintf("exception %v", out.Exc)
		} else if out.Value != want {
			status = fmt.Sprintf("MISMATCH (want %d)", want)
		}
		if status != "OK" && verdict == nil {
			verdict = fmt.Errorf("invocation %d: %s", rep+1, status)
		}
		fmt.Printf("invocation  %d: cycles=%d checksum=%d [%s]\n", rep+1, m.Cycles-before, out.Value, status)
	}

	rep := m.TierReport()
	fmt.Printf("tier        deopts=%d spec-live=%d compile-host=%v\n",
		rep.Deopts, rep.SpecLive, rep.CompileHost)
	for _, ev := range rep.Events {
		switch ev.Kind {
		case "deopt":
			fmt.Printf("event       %-10s %s (check %d)\n", ev.Kind, ev.Method, ev.Check)
		case "promote-t2":
			fmt.Printf("event       %-10s %s (%d checks speculated)\n", ev.Kind, ev.Method, ev.Specs)
		default:
			fmt.Printf("event       %-10s %s\n", ev.Kind, ev.Method)
		}
	}
	bl := m.Blacklisted()
	names := make([]string, 0, len(bl))
	for name := range bl {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("blacklist   %s: checks %v\n", name, bl[name])
	}
	if timeline {
		tl := obs.NewTimeline()
		tl.Add(w.Name+"/tiered", rec, nil)
		fmt.Print(tl.Render())
	}
	fail(verdict)
}

func fail(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "nulljit: %v\n", err)
		os.Exit(1)
	}
}
