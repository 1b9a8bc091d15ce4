package jit

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"trapnull/internal/arch"
	"trapnull/internal/ir"
	"trapnull/internal/workloads"
)

func pipelineTestFunc() *ir.Func {
	b := ir.NewFunc("victim", false)
	b.Param("n", ir.KindInt)
	b.Result(ir.KindInt)
	b.Block("entry")
	b.Return(ir.ConstInt(0))
	return b.Finish()
}

// TestRunPassContainsPanic: a panicking pass must become a structured
// *PassError carrying the pass name, function, IR dump and stack — never an
// unwinding panic.
func TestRunPassContainsPanic(t *testing.T) {
	f := pipelineTestFunc()
	res := &Result{}
	p := pass{name: "exploding", run: func(*ir.Func, *Result, *arch.Model) int { panic("kaboom") }}

	_, err := runPass(p, "victim", f, res, arch.IA32Win(), false, CompileOptions{})
	var pe *PassError
	if !errors.As(err, &pe) {
		t.Fatalf("got %T (%v), want *PassError", err, err)
	}
	if pe.Pass != "exploding" || pe.Func != "victim" {
		t.Errorf("PassError identifies %s/%s, want exploding/victim", pe.Pass, pe.Func)
	}
	if pe.Panic != "kaboom" {
		t.Errorf("Panic = %v, want kaboom", pe.Panic)
	}
	if len(pe.Stack) == 0 {
		t.Error("stack not captured")
	}
	if !strings.Contains(pe.IRDump, "victim") {
		t.Errorf("IR dump missing function body:\n%s", pe.IRDump)
	}
	if got := pe.Reason(); got != "panic in exploding: kaboom" {
		t.Errorf("Reason = %q", got)
	}
	if d := pe.Detail(); !strings.Contains(d, "IR at failure") || !strings.Contains(d, "stack") {
		t.Errorf("Detail missing sections:\n%s", d)
	}
}

// TestRunPassVerifierCatchesCorruption: with verification on, a pass that
// silently corrupts the CFG is caught at the pass boundary and named.
func TestRunPassVerifierCatchesCorruption(t *testing.T) {
	f := pipelineTestFunc()
	res := &Result{}
	corrupt := pass{name: "corrupting", run: func(f *ir.Func, _ *Result, _ *arch.Model) int {
		// Drop the terminator: structurally invalid IR, but no panic.
		e := f.Entry
		e.Instrs = e.Instrs[:len(e.Instrs)-1]
		return 1
	}}

	if _, err := runPass(corrupt, "victim", f, res, arch.IA32Win(), false, CompileOptions{}); err != nil {
		t.Fatalf("unverified pipeline should not notice: %v", err)
	}

	f2 := pipelineTestFunc()
	_, err := runPass(corrupt, "victim", f2, res, arch.IA32Win(), true, CompileOptions{})
	var pe *PassError
	if !errors.As(err, &pe) {
		t.Fatalf("got %T (%v), want *PassError", err, err)
	}
	if pe.Pass != "corrupting" || pe.Err == nil || pe.Panic != nil {
		t.Errorf("want verifier rejection naming the pass, got %+v", pe)
	}
	if got := pe.Reason(); got != "invalid IR after corrupting" {
		t.Errorf("Reason = %q", got)
	}
}

// benchCompile measures full-program compilation with or without the
// per-pass structural verifier; the ratio of the two is the verifier
// overhead budgeted at <2x in DESIGN.md §7.
func benchCompile(b *testing.B, verify bool) {
	model := arch.IA32Win()
	cfg := ConfigPhase1Phase2()
	cfg.Verify = verify
	for i := 0; i < b.N; i++ {
		p, _ := sample()
		if _, err := CompileProgram(p, cfg, model); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRoundPassNames: trace spans, remarks, bisect, AfterPass and PassFault
// key on "<pass>#<round>" names, so the static name table and the names
// formatted beyond it must both keep that form.
func TestRoundPassNames(t *testing.T) {
	for _, cfg := range []Config{
		{Algo: AlgoNew, OtherOpts: true, Iterations: namedRounds + 2},
		{Algo: AlgoWhaley, OtherOpts: true, LightScalar: true, Iterations: namedRounds + 2},
	} {
		for _, p := range pipeline(cfg) {
			if p.round == 0 {
				continue
			}
			base, _, _ := strings.Cut(p.name, "#")
			if want := fmt.Sprintf("%s#%d", base, p.round-1); p.name != want {
				t.Errorf("round %d pass named %q, want %q", p.round, p.name, want)
			}
		}
	}
}

func BenchmarkCompileNoVerify(b *testing.B) { benchCompile(b, false) }
func BenchmarkCompileVerify(b *testing.B)   { benchCompile(b, true) }

// TestObserverSeesEveryPass: AfterPass reports, in order, the pass names
// the pipeline declares minus exactly the rounds after the first quiescent
// one — the first round that leaves the function as it found it, judged here
// from the fully unrolled compile's IR. A function that changes in every
// round sees every declared pass.
func TestObserverSeesEveryPass(t *testing.T) {
	cfg := ConfigPhase1Phase2()
	model := arch.IA32Win()
	declared := pipeline(cfg)
	roundOf := map[string]int{}
	for _, p := range declared {
		roundOf[p.name] = p.round
	}
	sift := func() (*ir.Program, *ir.Func) {
		w, err := workloads.ByName("NumericSort")
		if err != nil {
			t.Fatal(err)
		}
		p, _ := w.Build()
		return p, p.MethodByName("sift").Fn
	}
	for _, tc := range []struct {
		name       string
		build      func() (*ir.Program, *ir.Func)
		everyRound bool
	}{
		{"sample", sample, false},
		{"NumericSort.sift", sift, true},
	} {
		// after[r] is the function's IR at the end of round r of the
		// unrolled compile; after[0] is its IR on entry to round 1.
		prog, fn := tc.build()
		after := make([]string, cfg.Iterations+1)
		_, err := compileUnrolled(prog, cfg, model, CompileOptions{
			AfterPass: func(pass string, f *ir.Func, _ time.Duration) error {
				if f == fn && (roundOf[pass] > 0 || after[1] == "") {
					after[roundOf[pass]] = f.String()
				}
				return nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		quiescent := cfg.Iterations
		for r := 1; r <= cfg.Iterations; r++ {
			if after[r] == after[r-1] {
				quiescent = r
				break
			}
		}
		var want []string
		for _, p := range declared {
			if p.round <= quiescent {
				want = append(want, p.name)
			}
		}

		prog, fn = tc.build()
		var observed []string
		_, err = CompileProgramWith(prog, cfg, model, CompileOptions{
			AfterPass: func(pass string, f *ir.Func, _ time.Duration) error {
				if f == fn {
					observed = append(observed, pass)
				}
				return nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if strings.Join(observed, ",") != strings.Join(want, ",") {
			t.Errorf("%s: observed passes %v, want %v (declared minus the rounds after round %d)",
				tc.name, observed, want, quiescent)
		}
		if everySeen := len(observed) == len(declared); everySeen != tc.everyRound {
			t.Errorf("%s: saw every declared pass = %v, want %v (quiescent at round %d)",
				tc.name, everySeen, tc.everyRound, quiescent)
		}
	}
}

// TestVerifySetting: TRAPNULL_VERIFY accepts "1", "on" and "true" and the
// off spellings "", "0", "off" and "false", in any case. Any other value is
// an error, and at start-up it stops the process with exit status 2 before
// any test runs, as an unknown TRAPNULL_ENGINE does.
func TestVerifySetting(t *testing.T) {
	for v, want := range map[string]bool{
		"": false, "0": false, "off": false, "OFF": false, "false": false, "False": false,
		"1": true, "on": true, "On": true, "true": true, "TRUE": true,
	} {
		if got, err := verifySetting(v); err != nil || got != want {
			t.Errorf("verifySetting(%q) = %v, %v; want %v", v, got, err, want)
		}
	}
	for _, v := range []string{"yes", "no", "2", "of", " 1"} {
		if _, err := verifySetting(v); err == nil {
			t.Errorf("verifySetting(%q) accepted", v)
		}
	}
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), "TRAPNULL_VERIFY=no")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("TRAPNULL_VERIFY=no: err=%v, want exit status 2\n%s", err, out)
	}
	if !strings.Contains(string(out), "TRAPNULL_VERIFY: ") {
		t.Fatalf("TRAPNULL_VERIFY=no: output %q does not name the variable", out)
	}
}
