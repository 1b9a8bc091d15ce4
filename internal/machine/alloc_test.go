package machine

import (
	"runtime"
	"testing"

	"trapnull/internal/arch"
	"trapnull/internal/randprog"
)

var sinkMachine *Machine

// TestMachineNewAllocatesNothingUpFront: a fresh machine sizes nothing for
// capacity it may never use — the heap starts empty and the per-function
// table is made when the first function runs — so New costs a few hundred
// bytes, not the tens of kilobytes a presized heap and cache would.
func TestMachineNewAllocatesNothingUpFront(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates on its own")
	}
	const calls = 1000
	model := arch.IA32Win()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range calls {
		sinkMachine = New(model, nil)
	}
	runtime.ReadMemStats(&after)
	sinkMachine = nil
	per := (after.TotalAlloc - before.TotalAlloc) / calls
	if per > 1024 {
		t.Fatalf("machine.New allocates %d B per call, want at most 1 KiB", per)
	}
	t.Logf("machine.New allocates %d B per call", per)
}

// BenchmarkOneShotRun times what a compile-and-run-once cell pays on the
// machine side: New plus a single Call of a generated program, on each
// engine, and on the closure engine with every body compiled before the
// call (eager), the cost a cold run avoids by interpreting until hot.
func BenchmarkOneShotRun(b *testing.B) {
	model := arch.IA32Win()
	p, fn := randprog.Generate(randprog.DefaultConfig(1))
	for _, name := range []string{"closure", "eager", "switch"} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				m := New(model, p)
				m.Engine = EngineClosure
				switch name {
				case "switch":
					m.Engine = EngineSwitch
				case "eager":
					m.PrecompileClosures()
				}
				if _, err := m.Call(fn, 5); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
