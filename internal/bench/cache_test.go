package bench

import (
	"fmt"
	"strings"
	"testing"

	"trapnull/internal/arch"
	"trapnull/internal/jit"
	"trapnull/internal/machine"
	"trapnull/internal/workloads"
)

// TestCompileCacheEntryImmutable deep-freezes a cache entry and verifies
// that consuming it the way a caching caller does — executing the shared
// program, re-deriving statistics — leaves every byte of it untouched.
func TestCompileCacheEntryImmutable(t *testing.T) {
	model := arch.IA32Win()
	cfg := jit.ConfigPhase1Phase2()
	w, err := workloads.ByName("Assignment")
	if err != nil {
		t.Fatal(err)
	}
	cache := jit.NewCache(0)
	p, entryM := w.Build()
	entry, _, err := cache.Compile(p, cfg, model, jit.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}

	freeze := func() (string, string) {
		var sb strings.Builder
		for _, m := range entry.Program.Methods {
			if m.Fn != nil {
				sb.WriteString(m.Fn.String())
			}
		}
		return sb.String(), fmt.Sprintf("%+v", *entry.Result)
	}
	irBefore, resBefore := freeze()

	for i := 0; i < 2; i++ { // two consumers, as two cache hits would be
		mach := machine.New(model, entry.Program)
		out, err := mach.Call(entry.Program.MethodByName(entryM.QualifiedName()).Fn, w.TestN)
		if err != nil {
			t.Fatal(err)
		}
		if want := w.Ref(w.TestN); out.Value != want {
			t.Fatalf("checksum mismatch: got %d, want %d", out.Value, want)
		}
		derived := *entry.Result // per-replay stats are copies
		derived.FuncsCompiled++  // mutate the copy, never the entry
		_ = derived
	}

	irAfter, resAfter := freeze()
	if irBefore != irAfter {
		t.Error("executing a cached program mutated its IR")
	}
	if resBefore != resAfter {
		t.Errorf("consuming a cached Result mutated it:\nbefore %s\nafter  %s", resBefore, resAfter)
	}
}
