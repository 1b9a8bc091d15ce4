package bench

import (
	"fmt"
	"strconv"

	"trapnull/internal/arch"
	"trapnull/internal/jit"
	"trapnull/internal/workloads"
)

// This file holds the ablation experiments DESIGN.md calls out — probes of
// the design choices rather than reproductions of the paper's tables. Every
// cell is measured by Run, the sweeps' checksum-verified cell runner.

// cyclesGrid runs configs × the named workloads on model and renders one row
// of cycles per configuration, labelled with the configuration's name.
func cyclesGrid(title, corner string, model *arch.Model, configs []jit.Config, names []string, quick bool, footer string) (string, error) {
	ws := make([]*workloads.Workload, len(names))
	for i, name := range names {
		w, err := workloads.ByName(name)
		if err != nil {
			return "", err
		}
		ws[i] = w
	}
	m, err := Run(model, configs, ws, Options{Quick: quick})
	if err != nil {
		return "", err
	}
	var rows [][]string
	for _, cfg := range configs {
		row := []string{cfg.Name}
		for _, name := range names {
			row = append(row, strconv.FormatInt(m.Cell(cfg.Name, name).Cycles, 10))
		}
		rows = append(rows, row)
	}
	return renderGrid(title, append([]string{corner}, names...), rows, footer), nil
}

// sweptConfigs returns one copy of the full algorithm per value, with set
// applying the value and the copy named after it.
func sweptConfigs(values []int, set func(*jit.Config, int)) []jit.Config {
	out := make([]jit.Config, len(values))
	for i, v := range values {
		out[i] = jit.ConfigPhase1Phase2()
		out[i].Name = strconv.Itoa(v)
		set(&out[i], v)
	}
	return out
}

// AblationIterations sweeps the phase-1 iteration count — the paper only
// says "iterated for a few times"; this measures where it converges.
func AblationIterations(quick bool) (string, error) {
	return cyclesGrid("Ablation A. Phase-1 iteration count (cycles; lower is better)", "phase1 iterations",
		arch.IA32Win(), sweptConfigs([]int{1, 2, 3, 5}, func(c *jit.Config, v int) { c.Iterations = v }),
		[]string{"Assignment", "LUDecomposition", "NeuralNet", "MTRT"}, quick,
		"the paper iterates \"a few times\"; gains typically converge by 2-3")
}

// AblationInlineBudget sweeps the inliner budget: inlining is what creates
// the explicit checks phase 2 optimizes, so both too little and the paper's
// choice are visible here.
func AblationInlineBudget(quick bool) (string, error) {
	return cyclesGrid("Ablation B. Inline budget (cycles; lower is better)", "inline budget",
		arch.IA32Win(), sweptConfigs([]int{1, 12, 24, 96}, func(c *jit.Config, v int) { c.InlineBudget = v }),
		[]string{"MTRT", "Jess", "DB", "Jack"}, quick,
		"budget 1 disables inlining; the accessor-heavy kernels need it before phase 2 matters")
}

// nullStormAt is NullStorm fixed at rate nulls per 1000 dereferences (its
// problem size) at both sizes, named after the rate.
func nullStormAt(rate int64) *workloads.Workload {
	w := workloads.NullStorm()
	w.Name = strconv.FormatInt(rate, 10)
	w.N, w.TestN = rate, rate
	return w
}

// AblationNullRate sweeps how often the checked reference actually is null.
// Implicit checks are free until they fire; a hardware trap costs thousands
// of cycles where a failed software check costs hundreds — so explicit
// checks win as soon as nulls are at all common. (This is why production
// VMs that adopted the paper's technique recompile methods that trap
// repeatedly.)
func AblationNullRate() (string, error) {
	var ws []*workloads.Workload
	for _, rate := range []int64{0, 1, 5, 20, 100, 500} {
		ws = append(ws, nullStormAt(rate))
	}
	explicit, trap := jit.ConfigNoNullOptNoTrap(), jit.ConfigPhase1Phase2()
	m, err := Run(arch.IA32Win(), []jit.Config{explicit, trap}, ws, Options{})
	if err != nil {
		return "", err
	}
	header := []string{"nulls per 1000", "explicit checks (cycles)", "trap-based (cycles)", "winner"}
	var rows [][]string
	for _, w := range ws {
		exp, tr := m.Cell(explicit.Name, w.Name).Cycles, m.Cell(trap.Name, w.Name).Cycles
		winner := "trap"
		if exp < tr {
			winner = "explicit"
		}
		rows = append(rows, []string{w.Name, fmt.Sprintf("%d", exp), fmt.Sprintf("%d", tr), winner})
	}
	return renderGrid("Ablation C. Null frequency vs. check implementation (NullStorm)",
		header, rows,
		"traps win only when nulls are rare — the assumption underlying the whole design"), nil
}

// trapAreaCell measures BigOffsetWalk under the full algorithm on an IA32
// model whose protected area is size bytes.
func trapAreaCell(size int64, quick bool) (*Cell, error) {
	model := arch.IA32Win()
	model.TrapAreaBytes = size
	w, cfg := workloads.BigOffsetWalk(), jit.ConfigPhase1Phase2()
	m, err := Run(model, []jit.Config{cfg}, []*workloads.Workload{w}, Options{Quick: quick})
	if err != nil {
		return nil, fmt.Errorf("trap area %d KB: %w", size/1024, err)
	}
	return m.Cell(cfg.Name, w.Name), nil
}

// AblationTrapArea sweeps the protected-area size against a big-offset
// field (Figure 5(1)): once the area covers the offset, the explicit check
// disappears.
func AblationTrapArea(quick bool) (string, error) {
	header := []string{"trap area", "cycles", "dynamic explicit checks"}
	var rows [][]string
	for _, size := range []int64{4 << 10, 16 << 10, 512 << 10} {
		c, err := trapAreaCell(size, quick)
		if err != nil {
			return "", err
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d KB", size/1024),
			fmt.Sprintf("%d", c.Cycles),
			fmt.Sprintf("%d", c.Exec.ExplicitChecks),
		})
	}
	return renderGrid("Ablation D. Protected trap area vs. a 64 KB field offset (BigOffsetWalk)",
		header, rows,
		"the far-field check converts to a trap only once the protected area covers its offset"), nil
}

// ExtensionAIXWriteImplicit measures the future-work mode of §3.3.1 — the
// paper's AIX JIT generated a conditional trap for every check, noting that
// writes could have used implicit checks "but we have not implemented it
// yet". This extension implements it (phase 2 against the real AIX model)
// and compares against the paper's shipped AIX configurations.
func ExtensionAIXWriteImplicit(quick bool) (string, error) {
	configs := []jit.Config{
		jit.ConfigAIXSpeculation(),
		jit.ConfigAIXWriteImplicit(),
		jit.ConfigAIXIllegalImplicit(),
	}
	return cyclesGrid("Extension E. AIX write-implicit checks (§3.3.1 future work; cycles, lower is better)",
		"configuration", arch.PPCAIX(), configs,
		[]string{"FPEmulation", "Bitfield", "Assignment", "DB", "Javac"}, quick,
		"legal write-implicit recovers part of IllegalImplicit's gain without violating the spec")
}

// Ablations renders every ablation experiment.
func Ablations(quick bool) (string, error) {
	out := ""
	for _, fn := range []func() (string, error){
		func() (string, error) { return AblationIterations(quick) },
		func() (string, error) { return AblationInlineBudget(quick) },
		AblationNullRate,
		func() (string, error) { return AblationTrapArea(quick) },
		func() (string, error) { return ExtensionAIXWriteImplicit(quick) },
	} {
		s, err := fn()
		if err != nil {
			return "", err
		}
		out += s + "\n"
	}
	return out, nil
}
