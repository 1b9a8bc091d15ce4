package trapnull

// Micro-benchmarks pinning the worklist solver and the parallel harness.
// BenchmarkSolve exercises the generic data-flow engine in all four
// (direction × meet) shapes over a large randomly generated CFG;
// BenchmarkFullTableRun measures the whole table/figure sweep at several
// worker counts. Before/after numbers are recorded in CHANGES.md.

import (
	"fmt"
	"testing"

	"trapnull/internal/bench"
	"trapnull/internal/bitset"
	"trapnull/internal/dataflow"
	"trapnull/internal/ir"
	"trapnull/internal/randprog"
)

// solveBenchFunc generates a large random function (hundreds of blocks once
// the structured generator nests to depth 6) for solver benchmarking.
func solveBenchFunc(b *testing.B) *ir.Func {
	b.Helper()
	cfg := randprog.Config{
		Seed:      29, // ~2200 blocks, ~2600 locals at this depth
		MaxDepth:  8,
		MaxStmts:  14,
		AllowNull: true,
		AllowTry:  true,
		AllowOOB:  true,
	}
	_, fn := randprog.Generate(cfg)
	fn.RecomputeEdges()
	return fn
}

// useDefScan is a liveness-shaped block summary (gen = upward-exposed uses,
// kill = definitions); it exercises the solver identically in every
// direction/meet combination.
func useDefScan(blk *ir.Block, use, def *bitset.Set) {
	for _, in := range blk.Instrs {
		for _, a := range in.Args {
			if a.IsVar() && !def.Has(int(a.Var)) {
				use.Add(int(a.Var))
			}
		}
		if in.HasDst() && !use.Has(int(in.Dst)) {
			def.Add(int(in.Dst))
		}
	}
}

func BenchmarkSolve(b *testing.B) {
	fn := solveBenchFunc(b)
	size := fn.NumLocals()
	b.Logf("cfg: %d blocks, %d instrs, %d locals", len(fn.Blocks), fn.NumInstrs(), size)
	cases := []struct {
		name string
		dir  dataflow.Direction
		meet dataflow.Meet
	}{
		{"Forward/Intersect", dataflow.Forward, dataflow.Intersect},
		{"Forward/Union", dataflow.Forward, dataflow.Union},
		{"Backward/Intersect", dataflow.Backward, dataflow.Intersect},
		{"Backward/Union", dataflow.Backward, dataflow.Union},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dataflow.Solve(fn, &dataflow.Problem{
					Dir:  tc.dir,
					Meet: tc.meet,
					Size: size,
					Scan: useDefScan,
				}).Release()
			}
		})
	}
}

// BenchmarkFullTableRun measures the whole experiment sweep (every table and
// figure input) end to end at several worker counts. On multi-core hosts the
// parallel variants should approach linear scaling; the rendered output is
// byte-identical at every worker count (see bench.TestParallelSweepDeterminism).
func BenchmarkFullTableRun(b *testing.B) {
	for _, par := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("parallel=%d", par), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bench.RunAll(bench.Options{Quick: true, Parallelism: par}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
