// Command benchdiff compares two benchtab -json reports benchstat-style and
// exits non-zero when the candidate regresses the baseline. It is the CI
// gate behind BENCH_baseline.json.
//
// Usage:
//
//	benchdiff old.json new.json
//	benchdiff -cycles-tol 2 -strict-fates old.json new.json
//
// Gated quantities are simulated and deterministic (cycles, fate
// histograms); host compile timings are never gated. Exit codes: 0 = no
// regression, 1 = regression, 2 = usage or I/O error.
package main

import (
	"flag"
	"fmt"
	"os"

	"trapnull/internal/bench"
)

func main() {
	var (
		cyclesTol   = flag.Float64("cycles-tol", 2.0, "max % increase in a cell's simulated cycles before gating")
		strictFates = flag.Bool("strict-fates", false, "gate on any check-fate histogram change")
		quiet       = flag.Bool("quiet", false, "print only notes and regressions, not the per-cell table")
	)
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [flags] baseline.json candidate.json")
		os.Exit(2)
	}

	oldData, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}
	newData, err := os.ReadFile(flag.Arg(1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}

	d, err := bench.DiffReports(oldData, newData, bench.DiffOptions{
		CyclesTolerancePct: *cyclesTol,
		StrictFates:        *strictFates,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}
	if *quiet {
		d.Lines = nil
	}
	fmt.Print(d.Render())
	if !d.Ok() {
		os.Exit(1)
	}
}
