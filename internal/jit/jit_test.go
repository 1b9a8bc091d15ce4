package jit

import (
	"strings"
	"testing"

	"trapnull/internal/arch"
	"trapnull/internal/ir"
	"trapnull/internal/nullcheck"
)

// sample builds a small program with a loop, a virtual accessor, and an
// array walk — enough surface for every pipeline stage to do something.
func sample() (*ir.Program, *ir.Func) {
	p := ir.NewProgram("sample")
	cls := p.NewClass("C",
		&ir.Field{Name: "f", Kind: ir.KindInt},
	)
	gb := ir.NewFunc("getF", true)
	this := gb.Param("this", ir.KindRef)
	gb.Result(ir.KindInt)
	gb.Block("entry")
	gv := gb.Temp(ir.KindInt)
	gb.GetField(gv, this, cls.FieldByName("f"))
	gb.Return(ir.Var(gv))
	getF := p.AddMethod(cls, "getF", gb.Finish(), true)

	b := ir.NewFunc("main", false)
	n := b.Param("n", ir.KindInt)
	b.Result(ir.KindInt)
	i := b.Local("i", ir.KindInt)
	s := b.Local("s", ir.KindInt)
	o := b.Local("o", ir.KindRef)
	a := b.Local("a", ir.KindRef)

	entry := b.Block("entry")
	body := b.DeclareBlock("body")
	exit := b.DeclareBlock("exit")
	b.SetBlock(entry)
	b.New(o, cls)
	b.PutField(o, cls.FieldByName("f"), ir.ConstInt(3))
	b.NewArray(a, ir.ConstInt(8))
	b.Move(i, ir.ConstInt(0))
	b.Move(s, ir.ConstInt(0))
	b.Jump(body)
	b.SetBlock(body)
	v := b.Temp(ir.KindInt)
	b.CallVirtual(v, getF, o)
	b.Binop(ir.OpAdd, s, ir.Var(s), ir.Var(v))
	idx := b.Temp(ir.KindInt)
	b.Binop(ir.OpAnd, idx, ir.Var(i), ir.ConstInt(7))
	b.ArrayStore(a, ir.Var(idx), ir.Var(s))
	b.Binop(ir.OpAdd, i, ir.Var(i), ir.ConstInt(1))
	b.If(ir.CondLT, ir.Var(i), ir.Var(n), body, exit)
	b.SetBlock(exit)
	b.Return(ir.Var(s))
	fn := b.Finish()
	p.AddMethod(nil, "main", fn, false)
	return p, fn
}

func allConfigs() []Config {
	return append(WindowsConfigs(), AIXConfigs()...)
}

func TestConfigNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range allConfigs() {
		if seen[c.Name] {
			t.Fatalf("duplicate config name %q", c.Name)
		}
		seen[c.Name] = true
	}
}

// TestConfigByName: the CLI lookup covers every table row plus the
// write-implicit extension, each once in declaration order, and matches
// names ignoring case.
func TestConfigByName(t *testing.T) {
	var names []string
	for _, c := range AllConfigs() {
		names = append(names, c.Name)
	}
	var want []string
	for _, c := range append(allConfigs(), ConfigAIXWriteImplicit()) {
		want = append(want, c.Name)
	}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("AllConfigs = %v, want %v", names, want)
	}
	for _, name := range []string{"WriteImplicit(Spec)", "newnullcheck(phase1+2)", "HOTSPOTSIM"} {
		if c, ok := ConfigByName(name); !ok || !strings.EqualFold(c.Name, name) {
			t.Errorf("ConfigByName(%q) = %q, %v", name, c.Name, ok)
		}
	}
	if _, ok := ConfigByName("full"); ok {
		t.Error("ConfigByName resolved a name no configuration has")
	}
}

func TestCompileAllConfigsOnSample(t *testing.T) {
	for _, cfg := range WindowsConfigs() {
		p, _ := sample()
		res, err := CompileProgram(p, cfg, arch.IA32Win())
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		if res.FuncsCompiled != 2 {
			t.Fatalf("%s: compiled %d funcs, want 2", cfg.Name, res.FuncsCompiled)
		}
		if res.Times.Total() <= 0 {
			t.Fatalf("%s: no compile time measured", cfg.Name)
		}
	}
	for _, cfg := range AIXConfigs() {
		p, _ := sample()
		if _, err := CompileProgram(p, cfg, arch.PPCAIX()); err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
	}
}

func TestCompileIsDeterministic(t *testing.T) {
	for _, cfg := range allConfigs() {
		model := arch.IA32Win()
		if strings.Contains(cfg.Name, "Spec") || strings.Contains(cfg.Name, "NoNullCheckOpt") || strings.Contains(cfg.Name, "Illegal") {
			model = arch.PPCAIX()
		}
		p1, f1 := sample()
		p2, f2 := sample()
		if _, err := CompileProgram(p1, cfg, model); err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		if _, err := CompileProgram(p2, cfg, model); err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		if f1.String() != f2.String() {
			t.Fatalf("%s: nondeterministic compilation:\n%s\n---\n%s", cfg.Name, f1, f2)
		}
	}
}

func TestFullConfigRemovesAllChecksOnSample(t *testing.T) {
	p, fn := sample()
	res, err := CompileProgram(p, ConfigPhase1Phase2(), arch.IA32Win())
	if err != nil {
		t.Fatal(err)
	}
	// Every check in the hot loop is either eliminated (receiver allocated
	// locally) or converted to a trap; none should survive as instructions.
	if got := fn.CountOp(ir.OpNullCheck); got != 0 {
		t.Fatalf("%d explicit checks survive:\n%s", got, fn)
	}
	if res.Checks.ExplicitRemaining != 0 {
		t.Fatalf("stats disagree: ExplicitRemaining = %d", res.Checks.ExplicitRemaining)
	}
}

func TestNoNullOptKeepsEveryCheck(t *testing.T) {
	p, fn := sample()
	before := fn.CountOp(ir.OpNullCheck)
	if _, err := CompileProgram(p, ConfigNoNullOptNoTrap(), arch.IA32Win()); err != nil {
		t.Fatal(err)
	}
	// Inlining may add the devirtualization guard; nothing may be removed.
	if got := fn.CountOp(ir.OpNullCheck); got < before {
		t.Fatalf("baseline removed checks: %d -> %d", before, got)
	}
}

func TestIllegalImplicitSkipsGuardCheck(t *testing.T) {
	// The illegal configuration compiles code that the guard checker would
	// reject on the AIX model; CompileProgram must not reject it.
	p, fn := sample()
	cfg := ConfigAIXIllegalImplicit()
	if _, err := CompileProgram(p, cfg, arch.PPCAIX()); err != nil {
		t.Fatalf("illegal config rejected: %v", err)
	}
	// And it really is illegal: the checker flags it.
	hasViolation := nullcheck.CheckGuards(fn, arch.PPCAIX()) != nil
	hasMarks := false
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			if in.ExcSite {
				hasMarks = true
			}
		}
	}
	if !hasMarks {
		t.Fatal("illegal config produced no implicit marks at all")
	}
	if !hasViolation {
		t.Log("note: sample happened to stay legal on AIX (all reads guarded)")
	}
}

func TestPhase2ModelDefaultsToExecModel(t *testing.T) {
	// On AIX with phase 2 enabled and no override, writes become implicit
	// but reads stay explicit.
	p, fn := sample()
	cfg := Config{
		Name:   "aix-p2",
		Inline: true,
		Algo:   AlgoNew, Iterations: 1,
		OtherOpts: true,
		Phase2:    true,
	}
	if _, err := CompileProgram(p, cfg, arch.PPCAIX()); err != nil {
		t.Fatal(err)
	}
	if err := nullcheck.CheckGuards(fn, arch.PPCAIX()); err != nil {
		t.Fatalf("phase2 with default model violated AIX guards: %v", err)
	}
}

func TestIterationsClampedToOne(t *testing.T) {
	p, _ := sample()
	cfg := ConfigPhase1Phase2()
	cfg.Iterations = 0
	if _, err := CompileProgram(p, cfg, arch.IA32Win()); err != nil {
		t.Fatalf("zero iterations: %v", err)
	}
}
