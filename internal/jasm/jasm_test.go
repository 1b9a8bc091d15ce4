package jasm

import (
	"math"
	"strings"
	"testing"

	"trapnull/internal/arch"
	"trapnull/internal/jit"
	"trapnull/internal/machine"
	"trapnull/internal/nullcheck"
	"trapnull/internal/rt"
)

const pointProgram = `
# a class with two fields
class Point {
    int x
    int y
}

virtual method Point.getX(this ref) int {
entry:
    var t int
    t = getfield this, Point.x
    return t
}

func main(n int) int {
entry:
    var p ref
    var s int
    var i int
    p = new Point
    putfield p, Point.x, 7
    s = move 0
    i = move 0
    jump Lbody
Lbody:
    var t int
    t = callv Point.getX(p)
    s = add s, t
    i = add i, 1
    if i lt n goto Lbody else Ldone
Ldone:
    return s
}
`

func mustParse(t *testing.T, src string) (*machine.Machine, int64) {
	t.Helper()
	prog, funcs, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	fn := funcs["main"]
	if fn == nil {
		t.Fatal("no main")
	}
	m := machine.New(arch.IA32Win(), prog)
	out, err := m.Call(fn, 10)
	if err != nil {
		t.Fatal(err)
	}
	if out.Exc != rt.ExcNone {
		t.Fatalf("exception %v", out.Exc)
	}
	return m, out.Value
}

func TestParseAndRunPointProgram(t *testing.T) {
	_, v := mustParse(t, pointProgram)
	if v != 70 {
		t.Fatalf("main(10) = %d, want 70", v)
	}
}

func TestParsedProgramOptimizes(t *testing.T) {
	prog, funcs, err := Parse(pointProgram)
	if err != nil {
		t.Fatal(err)
	}
	model := arch.IA32Win()
	if _, err := jit.CompileProgram(prog, jit.ConfigPhase1Phase2(), model); err != nil {
		t.Fatal(err)
	}
	m := machine.New(model, prog)
	out, err := m.Call(funcs["main"], 10)
	if err != nil {
		t.Fatal(err)
	}
	if out.Value != 70 {
		t.Fatalf("optimized main(10) = %d, want 70", out.Value)
	}
	if m.Stats.ExplicitChecks != 0 {
		t.Fatalf("explicit checks executed: %d, want 0 after full optimization", m.Stats.ExplicitChecks)
	}
}

func TestParseTryRegion(t *testing.T) {
	src := `
func main(n int) int {
region R0 handler Lcatch exc e
entry:
    var s int
    var e ref
    s = move 1
    jump Ltry
Ltry (try R0):
    s = div s, n
    jump Ldone
Lcatch:
    s = move -1
    jump Ldone
Ldone:
    return s
}
`
	prog, funcs, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	m := machine.New(arch.IA32Win(), prog)
	out, err := m.Call(funcs["main"], 0) // division by zero -> handler
	if err != nil {
		t.Fatal(err)
	}
	if out.Value != -1 {
		t.Fatalf("main(0) = %d, want handler result -1", out.Value)
	}
	out, err = m.Call(funcs["main"], 1)
	if err != nil || out.Value != 1 {
		t.Fatalf("main(1) = %+v err=%v, want 1", out, err)
	}
}

func TestParseArraysAndMath(t *testing.T) {
	src := `
extern Math.sqrt sqrt

func main(n int) int {
entry:
    var a ref
    var v float
    var w float
    var r int
    a = newarray n
    astore a, 0, 9
    var x int
    x = aload a, 0
    v = i2f x
    w = math sqrt v
    r = f2i w
    return r
}
`
	_, funcs, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	prog, funcs2, _ := Parse(src)
	_ = funcs
	m := machine.New(arch.IA32Win(), prog)
	out, err := m.Call(funcs2["main"], 4)
	if err != nil {
		t.Fatal(err)
	}
	if out.Value != 3 {
		t.Fatalf("sqrt(9) = %d, want 3", out.Value)
	}
}

func TestParseBigOffsetField(t *testing.T) {
	src := `
class Wide {
    int near
    int far @ 65536
}
func main(n int) int {
entry:
    var w ref
    var t int
    w = new Wide
    putfield w, Wide.far, 5
    t = getfield w, Wide.far
    return t
}
`
	prog, funcs, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	cls := prog.ClassByName("Wide")
	if cls.FieldByName("far").Offset != 65536 {
		t.Fatalf("far offset = %d", cls.FieldByName("far").Offset)
	}
	m := machine.New(arch.IA32Win(), prog)
	out, err := m.Call(funcs["main"], 0)
	if err != nil || out.Value != 5 {
		t.Fatalf("out=%+v err=%v", out, err)
	}
	// Phase 2 must keep the far-field check explicit (Figure 5(1)).
	st := nullcheck.Phase2(funcs["main"], arch.IA32Win())
	if st.ExplicitRemaining == 0 {
		t.Fatal("big-offset checks all became implicit")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"unknown instr", "func main() int {\nentry:\n  frobnicate x\n}", "unknown"},
		{"undefined var", "func main() int {\nentry:\n  x = move 1\n}", "unknown variable"},
		{"unknown class", "func main() int {\nentry:\n  var p ref\n  p = new Nope\n  return 0\n}", "unknown class"},
		{"bad kind", "func main(x quux) int {\nentry:\n  return 0\n}", "unknown kind"},
		{"no terminator", "func main() int {\nentry:\n  var x int\n  x = move 1\n}", "terminator"},
		{"instr before label", "func main() int {\n  var x int\n  x = move 1\n}", "before first block"},
		{"dup var", "func main() int {\nentry:\n  var x int\n  var x int\n  return 0\n}", "duplicate"},
		{"unknown field", "class C {\n int f\n}\nfunc main() int {\nentry:\n  var p ref\n  p = new C\n  putfield p, C.g, 1\n  return 0\n}", "unknown field"},
		{"bad if", "func main(n int) int {\nentry:\n  if n goto A else B\n}", "malformed if"},
		{"unknown region", "func main() int {\nentry (try R9):\n  return 0\n}", "unknown region"},
		{"instr after terminator", afterTerminator, "line 4: instruction \"return 1\" after the terminator of block entry"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := Parse(tc.src)
			if err == nil {
				t.Fatalf("no error for %q", tc.src)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestParseCommentsAndWhitespace(t *testing.T) {
	src := `
# leading comment

func main() int {   # trailing comment
entry:
    var x int       # declare
    x = move 42
    return x
}
`
	_, funcs, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if funcs["main"] == nil {
		t.Fatal("main missing")
	}
}

func TestParseFloatLiterals(t *testing.T) {
	src := `
func main() float {
entry:
    var v float
    v = fadd 1.5, 2.25
    return v
}
`
	prog, funcs, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	m := machine.New(arch.IA32Win(), prog)
	out, err := m.Call(funcs["main"])
	if err != nil {
		t.Fatal(err)
	}
	if got := bitsToFloat(out.Value); got != 3.75 {
		t.Fatalf("1.5+2.25 = %g, want 3.75", got)
	}
}

func bitsToFloat(v int64) float64 { return math.Float64frombits(uint64(v)) }
