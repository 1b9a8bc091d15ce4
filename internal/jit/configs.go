package jit

import (
	"strings"

	"trapnull/internal/arch"
)

// The Windows/IA32 configurations of Tables 1–2 (§5). All enable inlining
// and the other optimizations; only the null check treatment varies, exactly
// as in the paper's experiment design.

// ConfigNoNullOptNoTrap: every required check is an explicit instruction.
func ConfigNoNullOptNoTrap() Config {
	return Config{
		Name:      "NoNullOpt(NoTrap)",
		Inline:    true,
		Algo:      AlgoNone,
		OtherOpts: true,
	}
}

// ConfigNoNullOptTrap: no elimination, but checks adjacent to trapping
// dereferences fold into the hardware trap.
func ConfigNoNullOptTrap() Config {
	c := ConfigNoNullOptNoTrap()
	c.Name = "NoNullOpt(Trap)"
	c.TrapFold = true
	return c
}

// ConfigOldNullCheck: Whaley's forward-analysis elimination plus trap
// folding — the previously known best algorithm.
func ConfigOldNullCheck() Config {
	return Config{
		Name:      "OldNullCheck",
		Inline:    true,
		Algo:      AlgoWhaley,
		OtherOpts: true,
		TrapFold:  true,
	}
}

// ConfigPhase1Only: the architecture-independent optimization iterated with
// the other optimizations; hardware traps used only via folding.
func ConfigPhase1Only() Config {
	return Config{
		Name:        "NewNullCheck(Phase1)",
		Inline:      true,
		Algo:        AlgoNew,
		Iterations:  3,
		OtherOpts:   true,
		TrapConvert: true,
	}
}

// ConfigPhase1Phase2: the full new algorithm.
func ConfigPhase1Phase2() Config {
	c := ConfigPhase1Only()
	c.Name = "NewNullCheck(Phase1+2)"
	c.TrapConvert = false
	c.Phase2 = true
	return c
}

// ConfigHotSpotSim is the simulated comparator for Figures 10–11 and
// Table 3 (see DESIGN.md §2): forward-analysis null check handling like the
// old algorithm, a considerably larger inlining budget, and a heavier
// pipeline (more optimization iterations), which makes it strong on
// call-dense workloads and slow to compile — the relative profile the paper
// reports for the HotSpot Server VM. Absolute HotSpot numbers are not
// reproducible and are not claimed.
func ConfigHotSpotSim() Config {
	return Config{
		Name:         "HotSpotSim",
		Inline:       true,
		InlineBudget: 96,
		Algo:         AlgoWhaley,
		Iterations:   14,
		OtherOpts:    true,
		LightScalar:  true,
		TrapFold:     true,
	}
}

// The AIX configurations of Tables 6–7 (§5.4). The paper's AIX JIT skips
// phase 2 and emits a one-cycle conditional trap for every surviving check;
// speculation is the lever under test.

// ConfigAIXSpeculation: new algorithm phase 1, speculation enabled.
func ConfigAIXSpeculation() Config {
	return Config{
		Name:        "Speculation",
		Inline:      true,
		Algo:        AlgoNew,
		Iterations:  3,
		OtherOpts:   true,
		Speculation: true,
	}
}

// ConfigAIXNoSpeculation: new algorithm phase 1, speculation disabled.
func ConfigAIXNoSpeculation() Config {
	c := ConfigAIXSpeculation()
	c.Name = "NoSpeculation"
	c.Speculation = false
	return c
}

// ConfigAIXNoNullOpt: the AIX baseline — no null check optimization, no
// speculation, all checks explicit conditional traps.
func ConfigAIXNoNullOpt() Config {
	return Config{
		Name:      "NoNullCheckOpt",
		Inline:    true,
		Algo:      AlgoNone,
		OtherOpts: true,
	}
}

// ConfigAIXIllegalImplicit applies the Intel phase 2 on AIX, assuming every
// memory access traps. Null reads then miss their NullPointerExceptions —
// the paper runs it purely to bound the benefit ("this violates the Java
// language specification").
func ConfigAIXIllegalImplicit() Config {
	return Config{
		Name:           "IllegalImplicit(NoSpec)",
		Inline:         true,
		Algo:           AlgoNew,
		Iterations:     3,
		OtherOpts:      true,
		Phase2:         true,
		Phase2Model:    arch.IA32Win(),
		Speculation:    false,
		SkipGuardCheck: true,
	}
}

// ConfigAIXWriteImplicit is the extension the paper describes but had not
// implemented ("Our JIT compiler for AIX could use implicit null checks for
// the memory writes, but we have not implemented it yet", §3.3.1): run the
// full phase 2 against the real AIX model, so checks consumed by memory
// writes become hardware traps while read checks stay explicit conditional
// traps. Fully legal, unlike IllegalImplicit.
func ConfigAIXWriteImplicit() Config {
	return Config{
		Name:        "WriteImplicit(Spec)",
		Inline:      true,
		Algo:        AlgoNew,
		Iterations:  3,
		OtherOpts:   true,
		Phase2:      true, // model defaults to the AIX execution model
		Speculation: true,
	}
}

// WindowsConfigs returns the Table 1/2 rows in presentation order.
func WindowsConfigs() []Config {
	return []Config{
		ConfigPhase1Phase2(),
		ConfigPhase1Only(),
		ConfigOldNullCheck(),
		ConfigNoNullOptTrap(),
		ConfigNoNullOptNoTrap(),
		ConfigHotSpotSim(),
	}
}

// AIXConfigs returns the Table 6/7 rows in presentation order.
func AIXConfigs() []Config {
	return []Config{
		ConfigAIXSpeculation(),
		ConfigAIXNoSpeculation(),
		ConfigAIXNoNullOpt(),
		ConfigAIXIllegalImplicit(),
	}
}

// AllConfigs returns every named configuration — the Windows rows, the AIX
// rows and the write-implicit extension — once each, in that order.
func AllConfigs() []Config {
	var out []Config
	seen := map[string]bool{}
	for _, c := range append(append(WindowsConfigs(), AIXConfigs()...), ConfigAIXWriteImplicit()) {
		if !seen[c.Name] {
			seen[c.Name] = true
			out = append(out, c)
		}
	}
	return out
}

// ConfigByName returns the configuration of AllConfigs whose name matches
// name, ignoring case.
func ConfigByName(name string) (Config, bool) {
	for _, c := range AllConfigs() {
		if strings.EqualFold(c.Name, name) {
			return c, true
		}
	}
	return Config{}, false
}
