package jasm

import (
	"os"
	"path/filepath"
	"testing"

	"trapnull/internal/arch"
	"trapnull/internal/jit"
	"trapnull/internal/machine"
)

// triageReproducer is the reproducer triage emits for the planted phase 2
// miscompile (randprog seed 1643, NewNullCheck(Phase1+2) on ia32-win): a
// virtual call on a null receiver ahead of a null-guarded field read.
const triageReproducer = `class R {
    int f0 @ 8
    int f1 @ 16
    int f2 @ 24
}

virtual method R.clamped(v0 ref, v1 int) int {
L0:
    var v2 int
    if v1 lt 0 goto L1 else L2
L1:
    return v1
L2:
    nullcheck v0
    v2 = getfield! v0, R.f1
    return v2
}

func main(v0 int) int {
L0:
    var v1 int
    var v2 int
    var v3 int
    var v4 ref
    var v5 ref
    var v6 ref
    var v7 ref
    var v8 int
    var v9 int
    var v10 int
    var v11 int
    var v12 int
    var v13 int
    nullcheck v4
    v1 = callv! R.clamped(v4, v0)
    if v4 eq null goto L2 else L1
L1:
    v13 = getfield! v4, R.f2
    v10 = add v10, v13
    jump L2
L2:
    return v10
}
`

// aluShapes computes with var/const and var/var integer operations that are
// not folded into a terminator, so the seed corpus calls their closures.
const aluShapes = `func main(v0 int) int {
L0:
    var v1 int
    var v2 int
    v1 = add v0, 7
    v2 = sub v1, 2
    v1 = mul v2, v0
    v2 = add v1, v2
    v1 = xor v2, 5
    return v1
}
`

// fuzzMaxSteps bounds each fuzzed run, so looping inputs end in the step
// limit error, which both engines must also report identically.
const fuzzMaxSteps = 5000

// FuzzJasmEngines: for every accepted program that defines main, the
// closure engine and the reference switch interpreter agree — same
// Outcome, ExecStats, Cycles and error text — on both arch models, on the
// parsed program and on a fresh parse compiled under Phase1+2, and neither
// panics. The closure engine runs eager, with every body compiled before
// the call (and it must enter the closure engine), and lazy, as a default
// machine runs it. The corpus is the example programs, past parser crashers and
// triage's emitted reproducers.
func FuzzJasmEngines(f *testing.F) {
	paths, err := filepath.Glob("../../examples/jasm/*.jasm")
	if err != nil || len(paths) == 0 {
		f.Fatalf("no example programs to seed the corpus (%v)", err)
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Add(afterTerminator)
	f.Add(triageReproducer)
	f.Add(aluShapes)
	f.Fuzz(func(t *testing.T, src string) {
		if _, fns, err := Parse(src); err != nil || fns["main"] == nil {
			return
		}
		for _, model := range []*arch.Model{arch.IA32Win(), arch.PPCAIX()} {
			for _, optimize := range []bool{false, true} {
				type run struct {
					out    machine.Outcome
					err    string
					stats  machine.ExecStats
					cycles int64
				}
				var runs [3]run
				for k, side := range []string{"switch", "eager", "lazy"} {
					prog, fns, err := Parse(src)
					if err != nil {
						t.Fatalf("second parse failed: %v", err)
					}
					if optimize {
						if _, err := jit.CompileProgram(prog, jit.ConfigPhase1Phase2(), model); err != nil {
							return // a rejected program: the pipeline reports, never panics
						}
					}
					main := fns["main"]
					args := make([]int64, main.NumParams)
					for i := range args {
						args[i] = int64(3 + i)
					}
					m := machine.New(model, prog)
					m.Engine = machine.EngineClosure
					switch side {
					case "switch":
						m.Engine = machine.EngineSwitch
					case "eager":
						m.PrecompileClosures()
					}
					m.MaxSteps = fuzzMaxSteps
					out, err := m.Call(main, args...)
					runs[k] = run{out: out, stats: m.Stats, cycles: m.Cycles}
					if err != nil {
						runs[k].err = err.Error()
					}
					if side == "eager" && m.ClosureRuns() == 0 {
						t.Fatalf("%s optimize=%v: the eager side never entered the closure engine\n%s", model.Name, optimize, src)
					}
				}
				if runs[0] != runs[1] || runs[0] != runs[2] {
					t.Fatalf("%s optimize=%v: engines disagree\nswitch %+v\neager  %+v\nlazy   %+v\n%s",
						model.Name, optimize, runs[0], runs[1], runs[2], src)
				}
			}
		}
	})
}
