package bench

import (
	"strings"
	"testing"

	"trapnull/internal/arch"
	"trapnull/internal/jit"
	"trapnull/internal/workloads"
)

func TestAblationsRender(t *testing.T) {
	out, err := Ablations(true)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Ablation A", "Ablation B", "Ablation C", "Ablation D"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %s in ablation output", want)
		}
	}
}

// TestAblationIterationsMonotone: more phase-1 iterations never hurt, and
// the second iteration already captures the bulk of the gain (the paper's
// "a few times").
func TestAblationIterationsMonotone(t *testing.T) {
	w, err := workloads.ByName("Assignment")
	if err != nil {
		t.Fatal(err)
	}
	configs := sweptConfigs([]int{1, 2, 5}, func(c *jit.Config, v int) { c.Iterations = v })
	m, err := Run(arch.IA32Win(), configs, []*workloads.Workload{w}, Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	cycles := func(iters string) int64 { return m.Cell(iters, w.Name).Cycles }
	c1, c2, c5 := cycles("1"), cycles("2"), cycles("5")
	if !(c5 <= c2 && c2 <= c1) {
		t.Fatalf("iteration sweep not monotone: 1->%d 2->%d 5->%d", c1, c2, c5)
	}
	if c2 == c1 {
		t.Log("note: second iteration added nothing at quick size")
	}
}

// TestAblationNullRateCrossover: the design assumption of the whole paper —
// traps only pay when nulls are rare. Explicit checks must win once nulls
// are common, and trap-based checks must win when nulls never occur.
func TestAblationNullRateCrossover(t *testing.T) {
	explicit, trap := jit.ConfigNoNullOptNoTrap(), jit.ConfigPhase1Phase2()
	ws := []*workloads.Workload{nullStormAt(0), nullStormAt(500)}
	m, err := Run(arch.IA32Win(), []jit.Config{explicit, trap}, ws, Options{})
	if err != nil {
		t.Fatal(err)
	}
	run := func(cfg jit.Config, rate string) int64 { return m.Cell(cfg.Name, rate).Cycles }
	// No nulls: the trap configuration is at least as fast.
	if e, tr := run(explicit, "0"), run(trap, "0"); tr > e {
		t.Fatalf("rate 0: trap config slower (%d > %d)", tr, e)
	}
	// Frequent nulls: explicit checks win decisively.
	if e, tr := run(explicit, "500"), run(trap, "500"); e >= tr {
		t.Fatalf("rate 500: explicit checks did not win (%d >= %d)", e, tr)
	}
}

// TestAblationTrapAreaBoundary: a big-offset field converts to an implicit
// check exactly when the protected area covers its offset.
func TestAblationTrapAreaBoundary(t *testing.T) {
	run := func(area int64) int64 {
		c, err := trapAreaCell(area, true)
		if err != nil {
			t.Fatal(err)
		}
		return c.Exec.ExplicitChecks
	}
	small := run(4 << 10)
	big := run(512 << 10)
	if small == 0 {
		t.Fatal("small trap area: far-field check vanished illegally")
	}
	if big != 0 {
		t.Fatalf("large trap area: %d explicit checks remain", big)
	}
}

// TestExtensionWorkloadsMatchReference: the ablation workloads obey the same
// differential contract as the paper's seventeen.
func TestExtensionWorkloadsMatchReference(t *testing.T) {
	ws := []*workloads.Workload{workloads.NullStorm(), workloads.BigOffsetWalk()}
	if _, err := Run(arch.IA32Win(), jit.WindowsConfigs(), ws, Options{Quick: true}); err != nil {
		t.Fatal(err)
	}
}
