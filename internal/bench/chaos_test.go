package bench

import (
	"strings"
	"testing"

	"trapnull/internal/machine"
)

// TestChaosDeterministicAcrossWorkers: the same seed must produce a
// byte-identical chaos report at any parallelism — the whole point of keying
// injection decisions on semantic coordinates instead of scheduling.
func TestChaosDeterministicAcrossWorkers(t *testing.T) {
	serial, err := RunChaos(3, ChaosOptions{Parallelism: 1})
	if err != nil {
		t.Fatalf("serial chaos run had unexpected failures: %v", err)
	}
	parallel, err := RunChaos(3, ChaosOptions{Parallelism: 4})
	if err != nil {
		t.Fatalf("parallel chaos run had unexpected failures: %v", err)
	}
	if a, b := serial.Render(), parallel.Render(); a != b {
		t.Fatalf("chaos report depends on worker count:\n--- serial ---\n%s\n--- parallel ---\n%s", a, b)
	}
}

// TestChaosDeterministicAcrossEngines: both execution engines must produce
// the identical chaos report — injected step faults fire through the shared
// step-limit choke point, so the fault surfaces at the same dynamic step in
// the same function either way.
func TestChaosDeterministicAcrossEngines(t *testing.T) {
	old := machine.DefaultEngine
	defer func() { machine.DefaultEngine = old }()

	machine.DefaultEngine = machine.EngineClosure
	closure, err := RunChaos(5, ChaosOptions{Parallelism: 2})
	if err != nil {
		t.Fatalf("closure-engine chaos run had unexpected failures: %v", err)
	}
	machine.DefaultEngine = machine.EngineSwitch
	sw, err := RunChaos(5, ChaosOptions{Parallelism: 2})
	if err != nil {
		t.Fatalf("switch-engine chaos run had unexpected failures: %v", err)
	}
	if a, b := closure.Render(), sw.Render(); a != b {
		t.Fatalf("chaos report depends on the engine:\n--- closure ---\n%s\n--- switch ---\n%s", a, b)
	}
}

// TestChaosActuallyInjects: a chaos run that never arms a fault is testing
// nothing — the default rates must perturb a sweep this size. An armed step
// fault must also fire: a cell that fails with the injected step fault is
// what drives the engines' step-limit path, and a fault armed past the end
// of its cell's run would leave that path untested.
func TestChaosActuallyInjects(t *testing.T) {
	rep, err := RunChaos(3, ChaosOptions{Parallelism: 2})
	if err != nil {
		t.Fatalf("chaos run had unexpected failures: %v", err)
	}
	if len(rep.Schedule) == 0 {
		t.Fatal("chaos run armed no faults at all")
	}
	if len(rep.Lines) == 0 {
		t.Fatal("chaos run measured no cells")
	}
	fired := false
	for _, l := range rep.Lines {
		fired = fired || strings.Contains(l, "injected step fault")
	}
	if !fired {
		t.Fatalf("no cell failed with an injected step fault:\n%s", rep.Render())
	}
}
