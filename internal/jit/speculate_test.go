package jit

import (
	"testing"

	"trapnull/internal/arch"
	"trapnull/internal/workloads"
)

// TestSpecSetCanon pins the canonical form behind the speculation (and
// demotion) cache keys: methods sorted by name, ordinals sorted and
// deduplicated, empty selections dropped.
func TestSpecSetCanon(t *testing.T) {
	cases := []struct {
		name string
		set  SpecSet
		want string
	}{
		{"nil", nil, ""},
		{"empty", SpecSet{}, ""},
		{"empty-ords", SpecSet{"A.m": nil}, ""},
		{"one", SpecSet{"A.m": {1}}, "A.m:1"},
		{"sorted-dedup", SpecSet{"A.m": {2, 0, 2, 0}}, "A.m:0,2"},
		{"methods-sorted", SpecSet{"B.g": {1}, "A.m": {0}}, "A.m:0;B.g:1"},
		{"mixed", SpecSet{"B.get": {3, 1}, "A.main": {2, 0, 2}, "C.x": {}}, "A.main:0,2;B.get:1,3"},
	}
	for _, c := range cases {
		if got := c.set.Canon(); got != c.want {
			t.Errorf("%s: Canon() = %q, want %q", c.name, got, c.want)
		}
	}
}

// TestKeySpecDistinct pins the satellite-4 keying contract: the conservative
// key, the speculative key, and any two distinct speculation sets of the
// same program never collide, while a nil set reproduces the plain Key.
func TestKeySpecDistinct(t *testing.T) {
	w := workloads.BigOffsetWalk()
	model := arch.IA32Win()
	cfg := ConfigPhase1Phase2()
	p, _ := w.Build()

	k0 := Key(p, cfg, model)
	kNil := KeySpec(p, cfg, model, nil)
	if k0 != kNil {
		t.Errorf("KeySpec with nil set must equal Key: %+v vs %+v", k0, kNil)
	}
	kA := KeySpec(p, cfg, model, SpecSet{"BigOffsetWalk.main": {0}})
	if kA == k0 {
		t.Errorf("speculative key collides with conservative key")
	}
	kB := KeySpec(p, cfg, model, SpecSet{"BigOffsetWalk.main": {1}})
	if kA == kB {
		t.Errorf("distinct speculation sets share a key")
	}
}

// TestApplySpeculation checks the post-pipeline flag flip: compiling with a
// Spec set marks exactly the selected ordinals as guards, counts them in
// Result.SpeculatedChecks, leaves the block structure identical to the
// conservative compile, and ignores out-of-range ordinals.
func TestApplySpeculation(t *testing.T) {
	w := workloads.BigOffsetWalk()
	model := arch.IA32Win()
	cfg := ConfigPhase1Phase2()

	p0, _ := w.Build()
	if _, err := CompileProgramWith(p0, cfg, model, CompileOptions{}); err != nil {
		t.Fatal(err)
	}
	m0 := p0.MethodByName("BigOffsetWalk.main")
	checks := m0.Fn.NullChecks()
	if len(checks) == 0 {
		t.Fatal("BigOffsetWalk.main has no surviving checks to speculate")
	}
	for ord, in := range checks {
		if in.SpecGuard != 0 {
			t.Fatalf("conservative compile set SpecGuard on check %d", ord)
		}
	}

	p2, _ := w.Build()
	spec := SpecSet{"BigOffsetWalk.main": {0, 99}} // 99 is out of range: ignored
	res, err := CompileProgramWith(p2, cfg, model, CompileOptions{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if res.SpeculatedChecks != 1 {
		t.Errorf("SpeculatedChecks = %d, want 1", res.SpeculatedChecks)
	}
	m2 := p2.MethodByName("BigOffsetWalk.main")
	checks2 := m2.Fn.NullChecks()
	if len(checks2) != len(checks) {
		t.Fatalf("speculative compile changed the check list: %d vs %d", len(checks2), len(checks))
	}
	if checks2[0].SpecGuard != 1 {
		t.Errorf("check 0: SpecGuard = %d, want 1 (ordinal+1)", checks2[0].SpecGuard)
	}
	for ord := 1; ord < len(checks2); ord++ {
		if checks2[ord].SpecGuard != 0 {
			t.Errorf("check %d speculated without being selected", ord)
		}
	}

	// Block-for-block alignment: speculation is a flag flip on the
	// deterministic recompile, so the block and instruction shape match the
	// conservative artifact exactly.
	f0, f2 := m0.Fn, m2.Fn
	if len(f0.Blocks) != len(f2.Blocks) {
		t.Fatalf("block count diverged: %d vs %d", len(f0.Blocks), len(f2.Blocks))
	}
	for i := range f0.Blocks {
		if f0.Blocks[i].ID != f2.Blocks[i].ID || len(f0.Blocks[i].Instrs) != len(f2.Blocks[i].Instrs) {
			t.Fatalf("block %d shape diverged", i)
		}
	}

	// The speculative program's content hash differs — SpecGuard is part of
	// the instruction encoding, so a cached artifact can never masquerade as
	// its conservative twin even if the Spec key field were dropped.
	if HashProgram(p0) == HashProgram(p2) {
		t.Errorf("speculative and conservative programs hash identically")
	}
}
