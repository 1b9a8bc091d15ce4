package jit

import (
	"slices"
	"testing"

	"trapnull/internal/arch"
	"trapnull/internal/ir"
	"trapnull/internal/workloads"
)

// TestDemoteSetCanon: canonical form is order-insensitive and deduplicated —
// it feeds both the cache key and the content hash.
func TestDemoteSetCanon(t *testing.T) {
	a := DemoteSet{"B.get": {3, 1}, "A.main": {2, 0, 2}}
	b := DemoteSet{"A.main": {0, 2}, "B.get": {1, 3, 3}}
	if a.Canon() != b.Canon() {
		t.Fatalf("canon is order- or duplicate-sensitive: %q vs %q", a.Canon(), b.Canon())
	}
	if want := "A.main:0,2;B.get:1,3"; a.Canon() != want {
		t.Fatalf("canon %q, want %q", a.Canon(), want)
	}
	if (DemoteSet{}).Canon() != "" || DemoteSet(nil).Canon() != "" {
		t.Fatal("empty demote set must canonicalize to the empty string")
	}
	// Canon must not reorder the caller's ordinals in place.
	if !slices.Equal(a["B.get"], []int{3, 1}) {
		t.Errorf("Canon mutated its input: %v", a["B.get"])
	}
	// SpecSet and DemoteSet are one SiteSet type, so one keys like the other.
	var spec SpecSet = DemoteSet{"A.main": {0}}
	if spec.Canon() != "A.main:0" {
		t.Errorf("SpecSet of a DemoteSet canonicalizes as %q", spec.Canon())
	}
}

// TestTrapSiteNumberingIsStable: trap-site ordinals are assigned in block
// order after the pipeline, so two compilations of the same program under
// the same configuration tag the same sites with the same ordinals — the
// property the governor's cross-generation counters depend on.
func TestTrapSiteNumberingIsStable(t *testing.T) {
	model := arch.IA32Win()
	cfg := ConfigPhase1Phase2()

	sites := func() map[string][]int32 {
		p, _ := workloads.TrapStorm().Build()
		if _, err := CompileProgram(p, cfg, model); err != nil {
			t.Fatal(err)
		}
		out := make(map[string][]int32)
		for _, m := range p.Methods {
			if m.Fn == nil {
				continue
			}
			for _, b := range m.Fn.Blocks {
				for _, in := range b.Instrs {
					if in.TrapSite != 0 {
						out[m.QualifiedName()] = append(out[m.QualifiedName()], in.TrapSite)
						if !in.ExcSite {
							t.Errorf("%s: pristine compile tagged a non-exception site", m.QualifiedName())
						}
					}
				}
			}
		}
		return out
	}

	first, second := sites(), sites()
	if len(first) == 0 {
		t.Fatal("no trap sites numbered on TrapStorm under the implicit config")
	}
	for name, ords := range first {
		if got := second[name]; len(got) != len(ords) {
			t.Fatalf("%s: site count differs across compiles: %v vs %v", name, ords, got)
		} else {
			for i := range ords {
				if got[i] != ords[i] {
					t.Fatalf("%s: ordinals differ across compiles: %v vs %v", name, ords, got)
				}
			}
		}
	}
}

// TestApplyDemotionInsertsExplicitChecks: demoting a site replaces its
// implicit trap with an explicit OpNullCheck in the same block, carrying the
// site's ordinal forward; un-demoted sites are untouched.
func TestApplyDemotionInsertsExplicitChecks(t *testing.T) {
	model := arch.IA32Win()
	cfg := ConfigPhase1Phase2()

	// Pristine compile to learn the ordinals.
	p0, _ := workloads.TrapStorm().Build()
	if _, err := CompileProgram(p0, cfg, model); err != nil {
		t.Fatal(err)
	}
	var method string
	var ords []int
	for _, m := range p0.Methods {
		if m.Fn == nil {
			continue
		}
		for _, b := range m.Fn.Blocks {
			for _, in := range b.Instrs {
				if in.TrapSite != 0 {
					method = m.QualifiedName()
					ords = append(ords, int(in.TrapSite)-1)
				}
			}
		}
	}
	if len(ords) < 2 {
		t.Fatalf("need at least two trap sites to demote selectively, got %v", ords)
	}

	// Recompile with the first ordinal demoted.
	demote := DemoteSet{method: {ords[0]}}
	p1, _ := workloads.TrapStorm().Build()
	res, err := CompileProgramWith(p1, cfg, model, CompileOptions{Demote: demote})
	if err != nil {
		t.Fatal(err)
	}
	if res.DemotedChecks != 1 {
		t.Fatalf("DemotedChecks = %d, want 1", res.DemotedChecks)
	}

	m1 := p1.MethodByName(method)
	var explicit, implicit []int32
	for _, b := range m1.Fn.Blocks {
		for i, in := range b.Instrs {
			if in.TrapSite == 0 {
				continue
			}
			if in.Op == ir.OpNullCheck {
				if !in.Explicit || in.ExcSite {
					t.Fatal("demoted check must be explicit and not an exception site")
				}
				explicit = append(explicit, in.TrapSite)
				// The guarded dereference follows in the same block with its
				// implicit tag cleared.
				if i+1 >= len(b.Instrs) || b.Instrs[i+1].ExcSite {
					t.Fatal("demoted deref still marked as an exception site")
				}
			} else if in.ExcSite {
				implicit = append(implicit, in.TrapSite)
			}
		}
	}
	if len(explicit) != 1 || int(explicit[0])-1 != ords[0] {
		t.Fatalf("explicit sites %v, want exactly ordinal %d", explicit, ords[0])
	}
	if len(implicit) != len(ords)-1 {
		t.Fatalf("%d implicit sites survive, want %d", len(implicit), len(ords)-1)
	}
}

// TestKeyDemoteSeparatesGenerations: cache keys must distinguish demote
// sets, and the pristine key must equal the plain Key.
func TestKeyDemoteSeparatesGenerations(t *testing.T) {
	model := arch.IA32Win()
	cfg := ConfigPhase1Phase2()
	p, _ := workloads.TrapStorm().Build()

	k0 := Key(p, cfg, model)
	kEmpty := KeyDemote(p, cfg, model, nil, nil)
	if k0 != kEmpty {
		t.Fatal("empty demote set changes the cache key")
	}
	k1 := KeyDemote(p, cfg, model, nil, DemoteSet{"TrapStorm.main": {0}})
	k2 := KeyDemote(p, cfg, model, nil, DemoteSet{"TrapStorm.main": {1}})
	if k1 == k0 || k1 == k2 {
		t.Fatal("demote sets do not separate cache keys")
	}
	if k1.ID() == k2.ID() {
		t.Fatal("key IDs do not separate demote sets")
	}
}
