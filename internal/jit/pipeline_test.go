package jit

import (
	"errors"
	"strings"
	"testing"
	"time"

	"trapnull/internal/arch"
	"trapnull/internal/ir"
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
	p := pass{name: "exploding", run: func(*ir.Func, *Result) { panic("kaboom") }}

	err := runPass(p, f, res, false, nil, nil)
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
	corrupt := pass{name: "corrupting", run: func(f *ir.Func, _ *Result) {
		// Drop the terminator: structurally invalid IR, but no panic.
		e := f.Entry
		e.Instrs = e.Instrs[:len(e.Instrs)-1]
	}}

	if err := runPass(corrupt, f, res, false, nil, nil); err != nil {
		t.Fatalf("unverified pipeline should not notice: %v", err)
	}

	f2 := pipelineTestFunc()
	err := runPass(corrupt, f2, res, true, nil, nil)
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

func BenchmarkCompileNoVerify(b *testing.B) { benchCompile(b, false) }
func BenchmarkCompileVerify(b *testing.B)   { benchCompile(b, true) }

// TestObserverSeesEveryPass: the observed pipeline reports the same pass
// names the production pipeline runs, in order.
func TestObserverSeesEveryPass(t *testing.T) {
	cfg := ConfigPhase1Phase2()
	var fromPipeline []string
	model := arch.IA32Win()
	for _, p := range pipeline(cfg, model) {
		fromPipeline = append(fromPipeline, p.name)
	}
	var observed []string
	f := pipelineTestFunc()
	err := CompileFuncObserved(f, cfg, model, func(pass string, _ *ir.Func, _ time.Duration) error {
		observed = append(observed, pass)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(observed, ",") != strings.Join(fromPipeline, ",") {
		t.Errorf("observed passes %v, pipeline declares %v", observed, fromPipeline)
	}
}

// TestVerifySetting: TRAPNULL_VERIFY turns the verifier on for any value
// except unset and the off spellings TRAPNULL_COMPILE_CACHE accepts.
func TestVerifySetting(t *testing.T) {
	for v, want := range map[string]bool{
		"": false, "0": false, "off": false, "OFF": false, "false": false, "False": false,
		"1": true, "on": true, "true": true, "yes": true,
	} {
		if got := verifySetting(v); got != want {
			t.Errorf("verifySetting(%q) = %v, want %v", v, got, want)
		}
	}
}
