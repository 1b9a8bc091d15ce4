package jit

import (
	"strings"
	"sync"
	"testing"

	"trapnull/internal/arch"
	"trapnull/internal/ir"
	"trapnull/internal/machine"
	"trapnull/internal/obs"
	"trapnull/internal/workloads"
)

// disasm renders every method body, in program order.
func disasm(p *ir.Program) string {
	var sb strings.Builder
	for _, m := range p.Methods {
		if m.Fn == nil {
			continue
		}
		sb.WriteString(m.QualifiedName())
		sb.WriteString(":\n")
		sb.WriteString(m.Fn.String())
		sb.WriteString("\n")
	}
	return sb.String()
}

func renderRemarks(r *obs.Remarks) string {
	var sb strings.Builder
	r.Render(&sb)
	return sb.String()
}

// concurrently runs f(0) … f(n-1) on n goroutines and waits for all of them.
func concurrently(n int, f func(i int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f(i)
		}(i)
	}
	wg.Wait()
}

// compileCopies is how many fresh builds of one (workload, config) pair the
// concurrency tests compile at the same time.
const compileCopies = 2

// compiled is one observed compilation's artifact: disassembly, fate ledger
// and time-free Result.
type compiled struct {
	disasm, remarks string
	res             Result
	err             error
}

func compileObserved(w *workloads.Workload, cfg Config, model *arch.Model) compiled {
	p, _ := w.Build()
	ob := &Observer{Remarks: obs.NewRemarks()}
	res, err := CompileProgramWith(p, cfg, model, CompileOptions{Observer: ob})
	if err != nil {
		return compiled{err: err}
	}
	c := compiled{disasm: disasm(p), remarks: renderRemarks(ob.Remarks), res: *res}
	c.res.Times = Times{}
	return c
}

// TestParallelCompileMatchesSerial is the concurrent-compilation determinism
// gate. The bench worker pool compiles distinct programs at the same time,
// so for every workload, every configuration of both sweeps is compiled on
// its own goroutines — several fresh builds each, all at once — and each
// must produce byte-identical disassembly, an identical fate ledger and an
// identical time-free Result to the same compilation run alone. Any
// cross-compilation effect (shared mutable state in the pipeline or its
// passes) is a bug.
func TestParallelCompileMatchesSerial(t *testing.T) {
	type job struct {
		cfg   Config
		model *arch.Model
	}
	var jobs []job
	for _, cfg := range WindowsConfigs() {
		jobs = append(jobs, job{cfg, arch.IA32Win()})
	}
	for _, cfg := range AIXConfigs() {
		jobs = append(jobs, job{cfg, arch.PPCAIX()})
	}
	for _, w := range workloads.All() {
		serial := make([]compiled, len(jobs))
		for i, j := range jobs {
			serial[i] = compileObserved(w, j.cfg, j.model)
			if serial[i].err != nil {
				t.Fatalf("%s/%s serial: %v", w.Name, j.cfg.Name, serial[i].err)
			}
		}
		got := make([]compiled, len(jobs)*compileCopies)
		concurrently(len(got), func(i int) {
			j := jobs[i/compileCopies]
			got[i] = compileObserved(w, j.cfg, j.model)
		})
		for i, c := range got {
			want, name := serial[i/compileCopies], w.Name+"/"+jobs[i/compileCopies].cfg.Name
			switch {
			case c.err != nil:
				t.Fatalf("%s concurrent: %v", name, c.err)
			case c.disasm != want.disasm:
				t.Fatalf("%s: concurrent disassembly diverges from serial", name)
			case c.remarks != want.remarks:
				t.Fatalf("%s: fate ledgers diverge:\nserial:\n%s\nconcurrent:\n%s", name, want.remarks, c.remarks)
			case c.res != want.res:
				t.Fatalf("%s: results diverge:\nserial:     %+v\nconcurrent: %+v", name, want.res, c.res)
			}
		}
	}
}

// TestParallelCompileRunsCorrectCode compiles every workload at the same
// time and executes each compiled program to the reference checksum — the
// end-to-end backstop behind the byte-equality test above.
func TestParallelCompileRunsCorrectCode(t *testing.T) {
	ws := workloads.All()
	progs := make([]*ir.Program, len(ws))
	entries := make([]*ir.Method, len(ws))
	errs := make([]error, len(ws))
	concurrently(len(ws), func(i int) {
		progs[i], entries[i] = ws[i].Build()
		_, errs[i] = CompileProgram(progs[i], ConfigPhase1Phase2(), arch.IA32Win())
	})
	for i, w := range ws {
		if errs[i] != nil {
			t.Fatalf("%s: %v", w.Name, errs[i])
		}
		m := machine.New(arch.IA32Win(), progs[i])
		out, err := m.Call(entries[i].Fn, w.TestN)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if want := w.Ref(w.TestN); out.Value != want {
			t.Fatalf("%s: checksum %d, want %d", w.Name, out.Value, want)
		}
	}
}

// TestParallelCompileErrorMatchesSerial: failing compilations running at the
// same time each report exactly the error the same compilation reports alone.
func TestParallelCompileErrorMatchesSerial(t *testing.T) {
	cfg := ConfigPhase1Phase2()
	cfg.Verify = true
	cfg.SkipGuardCheck = false
	// Build a program whose LAST method fails the guard checker: a raw-Emit
	// field read with no null check anywhere is an unguarded dereference,
	// which checkGuardsContained rejects deterministically.
	build := func() *ir.Program {
		p, _ := sample()
		bb := ir.NewFunc("bad", false)
		o := bb.Param("o", ir.KindRef)
		bb.Result(ir.KindInt)
		bb.Block("entry")
		v := bb.Temp(ir.KindInt)
		big := &ir.Field{Name: "big", Kind: ir.KindInt, Offset: 1 << 20}
		bb.Emit(&ir.Instr{Op: ir.OpGetField, Dst: v, Field: big, Args: []ir.Operand{ir.Var(o)}})
		bb.Return(ir.Var(v))
		p.AddMethod(nil, "bad", bb.Finish(), false)
		return p
	}
	_, serialErr := CompileProgram(build(), cfg, arch.IA32Win())
	if serialErr == nil {
		t.Fatal("expected the forged program to fail serial compilation")
	}
	errs := make([]error, 4)
	concurrently(len(errs), func(i int) {
		_, errs[i] = CompileProgram(build(), cfg, arch.IA32Win())
	})
	for _, err := range errs {
		if err == nil {
			t.Fatal("expected the forged program to fail concurrent compilation")
		}
		if serialErr.Error() != err.Error() {
			t.Fatalf("error diverges:\nserial:     %v\nconcurrent: %v", serialErr, err)
		}
	}
}
