package bench

import (
	"testing"

	"trapnull/internal/arch"
	"trapnull/internal/jit"
	"trapnull/internal/workloads"
)

// timingFreeArtifacts lists the tables/figures derived purely from simulated
// quantities (cycles, event counts, static check stats). Tables 3–5 and
// Figures 12–13 render host compile times, which legitimately vary run to
// run, so byte-identity is asserted only for the rest (DESIGN.md §6).
var timingFreeArtifacts = []string{
	"table1", "table2", "table6", "table7",
	"figure8", "figure9", "figure10", "figure11", "figure14", "figure15",
}

// TestParallelSweepDeterminism is the harness-parallelism contract: a sweep
// fanned out over 4 workers must produce cell-for-cell identical simulated
// measurements — and byte-identical rendered artifacts — to the serial
// sweep. Only host-clock compile durations may differ.
func TestParallelSweepDeterminism(t *testing.T) {
	serial, err := RunAll(Options{Quick: true, Parallelism: 1})
	if err != nil {
		t.Fatalf("serial sweep: %v", err)
	}
	parallel, err := RunAll(Options{Quick: true, Parallelism: 4})
	if err != nil {
		t.Fatalf("parallel sweep: %v", err)
	}

	sArts, pArts := serial.Artifacts(), parallel.Artifacts()
	for _, name := range timingFreeArtifacts {
		if s, p := sArts[name](), pArts[name](); s != p {
			t.Errorf("%s differs between serial and parallel sweeps:\n--- serial ---\n%s\n--- parallel ---\n%s", name, s, p)
		}
	}

	pairs := []struct {
		name string
		s, p *Matrix
	}{
		{"WinJB", serial.WinJB, parallel.WinJB},
		{"WinSpec", serial.WinSpec, parallel.WinSpec},
		{"AIXJB", serial.AIXJB, parallel.AIXJB},
		{"AIXSpec", serial.AIXSpec, parallel.AIXSpec},
	}
	for _, pr := range pairs {
		for _, cfg := range pr.s.Configs {
			for _, w := range pr.s.Workloads {
				sc, pc := pr.s.Cell(cfg.Name, w.Name), pr.p.Cell(cfg.Name, w.Name)
				if sc == nil || pc == nil {
					t.Fatalf("%s %s/%s: missing cell (serial=%v parallel=%v)", pr.name, cfg.Name, w.Name, sc != nil, pc != nil)
				}
				if sc.Cycles != pc.Cycles {
					t.Errorf("%s %s/%s: cycles %d (serial) vs %d (parallel)", pr.name, cfg.Name, w.Name, sc.Cycles, pc.Cycles)
				}
				if sc.Exec != pc.Exec {
					t.Errorf("%s %s/%s: exec stats %+v vs %+v", pr.name, cfg.Name, w.Name, sc.Exec, pc.Exec)
				}
				ss, ps := sc.Static, pc.Static
				if ss.Checks != ps.Checks || ss.Inline != ps.Inline || ss.Scalar != ps.Scalar ||
					ss.BoundChecksRemoved != ps.BoundChecksRemoved || ss.FuncsCompiled != ps.FuncsCompiled {
					t.Errorf("%s %s/%s: static stats differ:\n%+v\nvs\n%+v", pr.name, cfg.Name, w.Name, ss, ps)
				}
			}
		}
	}
}

// TestParallelismOverride checks the worker-count policy: explicit override
// wins, zero falls back to GOMAXPROCS, and the pool never exceeds the job
// count.
func TestParallelismOverride(t *testing.T) {
	if got := (Options{Parallelism: 3}).workers(100); got != 3 {
		t.Errorf("explicit override: %d workers, want 3", got)
	}
	if got := (Options{Parallelism: 8}).workers(2); got != 2 {
		t.Errorf("capped by jobs: %d workers, want 2", got)
	}
	if got := (Options{}).workers(100); got < 1 {
		t.Errorf("default workers = %d, want >= 1", got)
	}
}

// TestParallelErrorDeterminism: a failing cell must surface the same error
// regardless of worker count or completion order.
func TestParallelErrorDeterminism(t *testing.T) {
	model := arch.IA32Win()
	ws := workloads.JBYTEmark()[:3]
	// A config whose guard checker is guaranteed to fail would be
	// artificial; instead poison a workload's reference function so the
	// checksum mismatches deterministically.
	bad := *ws[1]
	bad.Ref = func(n int64) int64 { return -1 }
	ws = []*workloads.Workload{ws[0], &bad, ws[2]}
	cfgs := jit.WindowsConfigs()[:2]

	var msgs []string
	for _, par := range []int{1, 4} {
		_, err := Run(model, cfgs, ws, Options{Quick: true, Parallelism: par})
		if err == nil {
			t.Fatalf("parallelism %d: expected checksum error", par)
		}
		msgs = append(msgs, err.Error())
	}
	if msgs[0] != msgs[1] {
		t.Errorf("error differs by worker count:\nserial:   %s\nparallel: %s", msgs[0], msgs[1])
	}
}
