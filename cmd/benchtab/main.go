// Command benchtab regenerates the tables and figures of the paper's
// evaluation section (§5) from the simulated machines.
//
// Usage:
//
//	benchtab -all                 # every table and figure
//	benchtab -table 1             # just Table 1
//	benchtab -figure 8            # just Figure 8
//	benchtab -quick               # small problem sizes (fast smoke run)
//	benchtab -parallel 8          # sweep cells on 8 workers (0 = GOMAXPROCS)
//	benchtab -tier                # tiered-execution tables (policies, not configs)
//	benchtab -degradation         # trap-storm governor degradation tables
//	benchtab -chaos -chaos-seed 7 # deterministic seeded fault-injection sweep
//	benchtab -cell-timeout 30s    # per-cell wall-clock deadline -> ERROR(timeout)
//	benchtab -trace out.json      # Chrome trace of the sweep (Perfetto-viewable)
//	benchtab -timeline tl.txt     # adaptive-decision timeline + trap-cost attribution
//	benchtab -metrics mx.txt      # deterministic telemetry metrics snapshot
//	benchtab -metrics-volatile    # include host-timing metrics in the snapshot
//	benchtab -remarks             # per-config null check fate histograms
//	benchtab -profile             # hot-block execution profile per cell
//	benchtab -cpuprofile cpu.pprof -memprofile mem.pprof
//
// -tier, -degradation, -chaos and -ablations are modes: one runs at a time,
// and a flag the chosen mode does not read is refused, not ignored. Every
// mode runs on the process's default engine, which TRAPNULL_ENGINE selects
// (closure, the default, or switch for the reference interpreter); the
// simulated numbers are identical on both.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	"trapnull/internal/bench"
	"trapnull/internal/obs"
)

func main() {
	var (
		all        = flag.Bool("all", false, "render every table and figure")
		table      = flag.Int("table", 0, "render one table (1-7)")
		figure     = flag.Int("figure", 0, "render one figure (8-15)")
		quick      = flag.Bool("quick", false, "use small problem sizes")
		parallel   = flag.Int("parallel", 0, "concurrent sweep cells (0 = GOMAXPROCS, 1 = serial)")
		ablations  = flag.Bool("ablations", false, "run the ablation experiments instead")
		tier       = flag.Bool("tier", false, "run the tiered-execution sweep instead (steady-state cycles and compile-time-to-peak per policy)")
		degrade    = flag.Bool("degradation", false, "run the trap-storm degradation sweep instead (implicit vs explicit vs governed per model)")
		chaos      = flag.Bool("chaos", false, "run the seeded fault-injection sweep instead; fails only on non-injected errors")
		chaosSeed  = flag.Int64("chaos-seed", 1, "seed of the -chaos fault schedule (same seed = byte-identical report)")
		cellTO     = flag.Duration("cell-timeout", 0, "per-cell wall-clock deadline for the main sweep (0 = none; expired cells render ERROR(timeout))")
		asJSON     = flag.Bool("json", false, "emit the full report as JSON")
		traceOut   = flag.String("trace", "", "write a Chrome trace-event JSON of the sweep to this file")
		timelineTo = flag.String("timeline", "", "write the adaptive-decision timeline (decision logs + trap-cost attribution) to this file")
		metricsTo  = flag.String("metrics", "", "write the telemetry metrics snapshot to this file")
		metricsVol = flag.Bool("metrics-volatile", false, "include volatile (host-timing/interleaving) metrics in the -metrics snapshot")
		remarks    = flag.Bool("remarks", false, "collect null-check fate remarks (adds fate histograms to tables/JSON)")
		profile    = flag.Bool("profile", false, "profile execution (adds hot-block summaries to tables/JSON)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	// Each mode reads only some flags besides the profilers; refuse a second
	// mode or any other flag rather than silently ignore it. The cases
	// follow the order in which main picks a mode.
	mode, reads := "the paper sweep", "all table figure quick parallel cell-timeout json trace timeline metrics metrics-volatile remarks profile"
	switch {
	case *tier:
		mode, reads = "-tier", "tier quick json trace timeline metrics metrics-volatile"
	case *degrade:
		mode, reads = "-degradation", "degradation quick json trace timeline metrics metrics-volatile"
	case *chaos:
		mode, reads = "-chaos", "chaos chaos-seed parallel cell-timeout timeline metrics metrics-volatile"
	case *ablations:
		mode, reads = "-ablations", "ablations quick"
	}
	flag.Visit(func(f *flag.Flag) {
		if f.Name != "cpuprofile" && f.Name != "memprofile" && !slices.Contains(strings.Fields(reads), f.Name) {
			fmt.Fprintf(os.Stderr, "benchtab: -%s does not apply to %s\n", f.Name, mode)
			os.Exit(2)
		}
	})

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
			}
		}()
	}

	// The telemetry plane (shared by every mode): a timeline collecting each
	// cell's decision log and trap-cost ledger, and a metrics
	// registry totalling the sweep counters. Both render deterministically.
	var timeline *obs.Timeline
	if *timelineTo != "" {
		timeline = obs.NewTimeline()
	}
	var metrics *obs.Registry
	if *metricsTo != "" {
		metrics = obs.NewRegistry()
	}
	emitTelemetry := func() {
		if timeline != nil {
			writeOut(*timelineTo, timeline.Render())
		}
		if metrics != nil {
			writeOut(*metricsTo, metrics.RenderText(*metricsVol))
		}
	}

	var tr *obs.Trace
	if *traceOut != "" {
		tr = obs.NewTrace()
	}
	writeTrace := func() {
		if tr == nil {
			return
		}
		if err := tr.WriteFile(*traceOut); err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchtab: wrote %d trace events to %s\n", len(tr.Events()), *traceOut)
	}

	if *tier || *degrade {
		run := bench.RunTieredAll
		if !*tier {
			run = bench.RunDegradationAll
		}
		prep, sweepErr := run(bench.PolicyOptions{Quick: *quick,
			Timeline: timeline, Trace: tr, Metrics: metrics})
		writeTrace()
		if *asJSON {
			data, err := prep.JSON()
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
				os.Exit(1)
			}
			fmt.Println(string(data))
		} else {
			fmt.Print(prep.Render())
		}
		emitTelemetry()
		failOn(sweepErr)
		return
	}

	if *chaos {
		// Injected faults are the point of the sweep: they render as
		// deterministic ERROR(...) cells inside the report. Only a fault the
		// schedule did not arm fails the run.
		crep, chaosErr := bench.RunChaos(*chaosSeed, bench.ChaosOptions{
			Parallelism: *parallel, CellTimeout: *cellTO,
			Timeline: timeline, Metrics: metrics})
		fmt.Print(crep.Render())
		emitTelemetry()
		failOn(chaosErr)
		return
	}

	if *ablations {
		out, err := bench.Ablations(*quick)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(out)
		return
	}

	if !*all && *table == 0 && *figure == 0 {
		*all = true
	}

	// A failing cell does not abort the sweep: RunAll always returns the
	// full (possibly partial) report. Render it — failed cells appear as
	// ERROR(<reason>) entries — then report the failures and exit non-zero.
	opts := bench.Options{Quick: *quick, Parallelism: *parallel,
		Remarks: *remarks, Profile: *profile, CellTimeout: *cellTO,
		Timeline: timeline, Trace: tr, Metrics: metrics}
	rep, sweepErr := bench.RunAll(opts)
	writeTrace()

	if *asJSON {
		data, err := rep.JSON()
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(string(data))
		emitTelemetry()
		failOn(sweepErr)
		return
	}

	arts := rep.Artifacts()
	emit := func(name string) {
		fn, ok := arts[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchtab: unknown artifact %q\n", name)
			os.Exit(1)
		}
		fmt.Println(fn())
	}

	switch {
	case *all:
		for _, name := range bench.ArtifactNames() {
			emit(name)
		}
	case *table != 0:
		emit(fmt.Sprintf("table%d", *table))
	case *figure != 0:
		emit(fmt.Sprintf("figure%d", *figure))
	}
	if *remarks {
		fmt.Print(rep.FateTables())
	}
	if *profile {
		fmt.Print(rep.ProfileTables())
	}
	emitTelemetry()
	failOn(sweepErr)
}

// writeOut writes a telemetry rendering to a file. A file is its one
// deterministic form: on stdout it would follow tables carrying host time.
func writeOut(path, content string) {
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
		os.Exit(1)
	}
}

// failOn reports a sweep failure after the (partial) results have been
// rendered, identifying every failing cell, and exits non-zero.
func failOn(err error) {
	if err == nil {
		return
	}
	fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
	os.Exit(1)
}
