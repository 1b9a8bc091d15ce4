package jit

import (
	"errors"
	"strings"
	"testing"
	"time"

	"trapnull/internal/arch"
	"trapnull/internal/ir"
)

// compileSampleWith compiles the sample program under cfg with po as
// CompileOptions.AfterPass and returns the program's entry function.
func compileSampleWith(cfg Config, po PassObserver) (*ir.Func, error) {
	prog, fn := sample()
	_, err := CompileProgramWith(prog, cfg, arch.IA32Win(), CompileOptions{AfterPass: po})
	return fn, err
}

func TestObservedPipelineVisitsEveryPass(t *testing.T) {
	var passes []string
	_, err := compileSampleWith(ConfigPhase1Phase2(), func(pass string, f *ir.Func, _ time.Duration) error {
		passes = append(passes, pass)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(passes, " ")
	for _, want := range []string{"inline", "rotate", "phase1#0", "copyprop#0",
		"constfold#0", "boundelim#0", "scalar#0", "dce#0", "phase2", "cleanup"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("pass %q not observed in %q", want, joined)
		}
	}
}

func TestObservedPipelineMatchesCompileProgram(t *testing.T) {
	// Compiling with an AfterPass observer must produce the identical
	// function as compiling without one.
	for _, cfg := range WindowsConfigs() {
		p1, f1 := sample()
		if _, err := CompileProgram(p1, cfg, arch.IA32Win()); err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		f2, err := compileSampleWith(cfg, func(string, *ir.Func, time.Duration) error { return nil })
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		if f1.String() != f2.String() {
			t.Fatalf("%s: observed pipeline diverges from CompileProgram:\n%s\n---\n%s",
				cfg.Name, f1, f2)
		}
	}
}

func TestObserverErrorStopsPipeline(t *testing.T) {
	boom := errors.New("stop here")
	_, err := compileSampleWith(ConfigPhase1Phase2(), func(pass string, f *ir.Func, _ time.Duration) error {
		if strings.HasPrefix(pass, "phase1") {
			return boom
		}
		return nil
	})
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped observer error", err)
	}
	if !strings.Contains(err.Error(), "phase1") {
		t.Fatalf("error %q does not name the pass", err)
	}
}

// TestPassFaultNamesPassAndMethod: a fault injected for one (method, pass)
// surfaces as a *PassError naming that pass and that method, carrying the
// fault message as its panic, and the AfterPass observer never sees the
// failing pass.
func TestPassFaultNamesPassAndMethod(t *testing.T) {
	prog, _ := sample()
	var asked, seen []string
	opts := CompileOptions{
		PassFault: func(method, pass string) string {
			asked = append(asked, method+"/"+pass)
			if method == "C.getF" && pass == "scalar#1" {
				return "injected fault"
			}
			return ""
		},
		AfterPass: func(pass string, f *ir.Func, _ time.Duration) error {
			seen = append(seen, f.Name+"/"+pass)
			return nil
		},
	}
	_, err := CompileProgramWith(prog, ConfigPhase1Phase2(), arch.IA32Win(), opts)
	var pe *PassError
	if !errors.As(err, &pe) {
		t.Fatalf("got %T (%v), want *PassError", err, err)
	}
	if pe.Pass != "scalar#1" || pe.Func != "getF" {
		t.Errorf("PassError identifies %s/%s, want scalar#1/getF", pe.Pass, pe.Func)
	}
	if pe.Panic != "injected fault" {
		t.Errorf("Panic = %v, want the fault message", pe.Panic)
	}
	if !strings.HasPrefix(err.Error(), "C.getF: ") {
		t.Errorf("error %q does not name the method", err)
	}
	if len(asked) == 0 || asked[len(asked)-1] != "C.getF/scalar#1" {
		t.Errorf("fault not consulted last for C.getF/scalar#1: %v", asked)
	}
	if len(seen) == 0 || seen[len(seen)-1] != "getF/boundelim#1" {
		t.Errorf("AfterPass saw the failing pass or stopped early: %v", seen)
	}
}
