// Command triage bisects and minimizes a miscompilation: given a random
// program seed (or a seed range to scan), a configuration and an
// architecture, it checks the optimized program against the interpreted
// baseline, names the first pipeline pass whose output diverges, delta-debugs
// the program to a minimal entry function, and prints the reproducer as jasm
// together with a ready-to-paste Go regression test.
//
// Usage:
//
//	triage -seed 1643 -config "NewNullCheck(Phase1+2)" -arch ia32 -inject-bug
//	triage -scan 2000 -config "NewNullCheck(Phase1+2)" -arch ia32 -inject-bug
//	triage -list-configs
//
// -inject-bug plants the any-path substitution miscompile into phase 2
// (nullcheck.Phase2UnsafeSubst) so the triage machinery can be demonstrated
// on a healthy tree. Exit status: 0 when the case behaves, 1 when a
// divergence was found and triaged, 2 on usage or internal errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"trapnull/internal/arch"
	"trapnull/internal/ir"
	"trapnull/internal/jit"
	"trapnull/internal/randprog"
	"trapnull/internal/triage"
)

func main() {
	var (
		seed        = flag.Int64("seed", 0, "random program seed to triage")
		scan        = flag.Int64("scan", 0, "scan seeds 0..N-1 and triage the first divergence")
		configName  = flag.String("config", "NewNullCheck(Phase1+2)", "configuration name (see -list-configs)")
		archName    = flag.String("arch", "ia32", "architecture model: ia32, aix, sparc")
		inject      = flag.Bool("inject-bug", false, "plant the any-path substitution miscompile into phase 2")
		inputs      = flag.String("inputs", "0,1,5,7,-3", "comma-separated entry inputs to try")
		listConfigs = flag.Bool("list-configs", false, "list configuration names and exit")
	)
	flag.Parse()

	if *listConfigs {
		for _, c := range jit.AllConfigs() {
			fmt.Println(c.Name)
		}
		return
	}

	model, err := arch.ByName(*archName)
	if err != nil {
		fail(2, "%v", err)
	}
	cfg, ok := jit.ConfigByName(*configName)
	if !ok {
		fail(2, "unknown config %q (try -list-configs)", *configName)
	}
	cfg.InjectUnsafeSubstitution = *inject

	var ins []int64
	for _, s := range strings.Split(*inputs, ",") {
		var n int64
		if _, err := fmt.Sscanf(strings.TrimSpace(s), "%d", &n); err != nil {
			fail(2, "bad input %q", s)
		}
		ins = append(ins, n)
	}

	caseFor := func(seed int64) triage.Case {
		return triage.Case{
			Gen: func() (*ir.Program, *ir.Func) {
				return randprog.Generate(randprog.DefaultConfig(seed))
			},
			Config: cfg,
			Model:  model,
			Inputs: ins,
		}
	}

	c := caseFor(*seed)
	chosen := *seed
	if *scan > 0 {
		found := false
		for s := int64(0); s < *scan; s++ {
			div, err := triage.Check(caseFor(s))
			if err != nil {
				fail(2, "seed %d: %v", s, err)
			}
			if div != nil {
				fmt.Printf("seed %d diverges: %v\n", s, div)
				c, chosen, found = caseFor(s), s, true
				break
			}
		}
		if !found {
			fmt.Printf("no divergence in seeds 0..%d (%s on %s)\n", *scan-1, cfg.Name, model.Name)
			return
		}
	}

	rep, err := triage.Run(c)
	if err != nil {
		fail(2, "triage: %v", err)
	}
	if rep.Divergence == nil {
		fmt.Printf("seed %d behaves under %s on %s (inputs %v)\n", chosen, cfg.Name, model.Name, ins)
		return
	}

	fmt.Printf("seed %d, config %s, arch %s\n", chosen, cfg.Name, model.Name)
	fmt.Printf("divergence:       %v\n", rep.Divergence)
	fmt.Printf("first bad pass:   %s (compiling %s)\n", rep.Pass, rep.Method)
	fmt.Printf("minimal entry:    %d instructions\n", rep.MinimalInstrs)
	if len(rep.PassTimes) > 0 {
		fmt.Printf("\n--- pass timings up to the guilty pass (observed recompilation) ---\n")
		for _, pt := range rep.PassTimes {
			fmt.Printf("%-28s %-24s %v\n", pt.Method, pt.Pass, pt.Elapsed.Round(time.Microsecond))
		}
	}
	fmt.Printf("\n--- IR after %s on %s ---\n%s", rep.Pass, rep.Method, rep.SnapshotIR)
	fmt.Printf("\n--- minimized reproducer (jasm) ---\n%s", rep.Reproducer)
	fmt.Printf("\n--- regression test ---\n%s", rep.RegressionTest)
	os.Exit(1)
}

func fail(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "triage: "+format+"\n", args...)
	os.Exit(code)
}
