package jit

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"trapnull/internal/arch"
	"trapnull/internal/ir"
	"trapnull/internal/obs"
	"trapnull/internal/opt"
	"trapnull/internal/workloads"
)

// TestProjectConfigEffectiveValues pins the key-projection rules of DESIGN.md
// §10: configurations spelled differently but compiled identically must share
// a projection, and every knob that changes generated code must split it.
func TestProjectConfigEffectiveValues(t *testing.T) {
	win := arch.IA32Win()
	aix := arch.PPCAIX()
	base := ConfigPhase1Phase2()

	t.Run("name and verify excluded", func(t *testing.T) {
		a, b := base, base
		b.Name = "renamed"
		b.Verify = true
		if ProjectConfig(a, win) != ProjectConfig(b, win) {
			t.Fatal("Name/Verify changed the projection")
		}
	})
	t.Run("iterations default", func(t *testing.T) {
		a, b := base, base
		a.Iterations = 0
		b.Iterations = 1
		if ProjectConfig(a, win) != ProjectConfig(b, win) {
			t.Fatal("Iterations 0 and 1 should project identically")
		}
		b.Iterations = 2
		if ProjectConfig(a, win) == ProjectConfig(b, win) {
			t.Fatal("Iterations 2 must split the projection")
		}
	})
	t.Run("inline budget default", func(t *testing.T) {
		a, b := base, base
		a.InlineBudget = 0
		b.InlineBudget = opt.InlineBudget
		if ProjectConfig(a, win) != ProjectConfig(b, win) {
			t.Fatal("default budget spelled explicitly should project identically")
		}
		// With inlining off the budget is dead config.
		a.Inline, b.Inline = false, false
		a.InlineBudget, b.InlineBudget = 0, 99
		if ProjectConfig(a, win) != ProjectConfig(b, win) {
			t.Fatal("InlineBudget must be ignored when Inline is off")
		}
	})
	t.Run("lowering precedence", func(t *testing.T) {
		a := base
		a.Phase2, a.TrapConvert, a.TrapFold = true, true, true
		b := base
		b.Phase2, b.TrapConvert, b.TrapFold = true, false, false
		if ProjectConfig(a, win) != ProjectConfig(b, win) {
			t.Fatal("Phase2 must shadow TrapConvert/TrapFold")
		}
		if got := ProjectConfig(a, win).Lowering; got != "phase2" {
			t.Fatalf("Lowering = %q, want phase2", got)
		}
	})
	t.Run("trap model by name", func(t *testing.T) {
		// Illegal Implicit: AIX execution, Intel trap model. Two distinct
		// Model values with the same name must not split the key.
		a := ConfigAIXIllegalImplicit()
		b := a
		m := *arch.IA32Win()
		b.Phase2Model = &m
		if ProjectConfig(a, aix) != ProjectConfig(b, aix) {
			t.Fatal("projection compared model pointers, not names")
		}
		if got := ProjectConfig(a, aix).TrapModel; got != arch.IA32Win().Name {
			t.Fatalf("TrapModel = %q, want %q", got, arch.IA32Win().Name)
		}
		// nil Phase2Model falls back to the execution model.
		c := base
		if got := ProjectConfig(c, aix).TrapModel; got != aix.Name {
			t.Fatalf("default TrapModel = %q, want %q", got, aix.Name)
		}
		// Without any lowering the trap model is dead config.
		d := base
		d.Phase2, d.TrapConvert, d.TrapFold = false, false, false
		d.Phase2Model = arch.IA32Win()
		e := d
		e.Phase2Model = nil
		if ProjectConfig(d, aix) != ProjectConfig(e, aix) {
			t.Fatal("Phase2Model must be ignored when no lowering runs")
		}
		if got := ProjectConfig(d, aix).TrapModel; got != "" {
			t.Fatalf("TrapModel without lowering = %q, want empty", got)
		}
	})
	t.Run("speculation is the effective conjunction", func(t *testing.T) {
		a := base
		a.Speculation = true
		if win.SpeculativeReads {
			t.Fatal("test premise: ia32-win reads can trap")
		}
		if ProjectConfig(a, win).Speculation {
			t.Fatal("Speculation must be masked by the execution model")
		}
		if !aix.SpeculativeReads {
			t.Fatal("test premise: ppc-aix reads cannot trap")
		}
		if !ProjectConfig(a, aix).Speculation {
			t.Fatal("Speculation lost on a speculative model")
		}
	})
}

// TestHashProgramContentAddressed: structurally identical programs digest
// identically (across distinct pointer graphs), and any content change —
// down to one constant operand — changes the digest.
func TestHashProgramContentAddressed(t *testing.T) {
	p1, _ := sample()
	p2, _ := sample()
	if HashProgram(p1) != HashProgram(p2) {
		t.Fatal("identical programs hash differently")
	}
	// Flip one constant deep inside a body.
	mutated := false
	for _, m := range p2.Methods {
		if m.Fn == nil {
			continue
		}
		for _, b := range m.Fn.Blocks {
			for _, in := range b.Instrs {
				for i := range in.Args {
					if in.Args[i].Kind != ir.OperConstInt {
						continue
					}
					in.Args[i].Int++
					mutated = true
					break
				}
				if mutated {
					break
				}
			}
			if mutated {
				break
			}
		}
		if mutated {
			break
		}
	}
	if !mutated {
		t.Fatal("found nothing to mutate")
	}
	if HashProgram(p1) == HashProgram(p2) {
		t.Fatal("one-constant mutation did not change the digest")
	}
}

func testKey(i int) CacheKey {
	var k CacheKey
	k.Model = arch.Model{Name: "m"}
	k.Program[0] = byte(i)
	k.Program[1] = byte(i >> 8)
	return k
}

// TestCacheConcurrentLookups: n goroutines look up one cold key at once.
// Each gets an entry and every lookup counts once, as a hit or a miss;
// ci.sh runs it under -race at GOMAXPROCS 1 and 4.
func TestCacheConcurrentLookups(t *testing.T) {
	c := NewCache(0)
	key := testKey(1)
	const n = 8
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e, _, err := c.GetOrCompile(key, false, func() (*CacheEntry, error) {
				return &CacheEntry{}, nil
			})
			if err != nil || e == nil {
				t.Errorf("entry=%v err=%v", e, err)
			}
		}()
	}
	wg.Wait()
	st := c.Stats()
	if st.Lookups != n || st.Hits+st.Misses != n || st.Misses < 1 {
		t.Fatalf("stats = %+v, want %d lookups split into hits and at least one miss", st, n)
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d, want 1", c.Len())
	}
}

// TestCacheErrorNotCached: a failed compile returns its error but leaves no
// entry behind, so the next lookup retries.
func TestCacheErrorNotCached(t *testing.T) {
	c := NewCache(0)
	key := testKey(2)
	boom := errors.New("boom")
	if _, _, err := c.GetOrCompile(key, false, func() (*CacheEntry, error) {
		return nil, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if c.Len() != 0 {
		t.Fatalf("error was cached: len = %d", c.Len())
	}
	entry, hit, err := c.GetOrCompile(key, false, func() (*CacheEntry, error) {
		return &CacheEntry{}, nil
	})
	if err != nil || hit || entry == nil {
		t.Fatalf("retry after error: entry=%v hit=%v err=%v", entry, hit, err)
	}
	if st := c.Stats(); st.Misses != 2 {
		t.Fatalf("misses = %d, want 2 (error flight + retry)", st.Misses)
	}
}

// TestCacheBound: at capacity a new key compiles on every lookup and is
// never stored, while the stored keys keep hitting.
func TestCacheBound(t *testing.T) {
	c := NewCache(2)
	lookup := func(k CacheKey) (compiled, hit bool) {
		_, hit, err := c.GetOrCompile(k, false, func() (*CacheEntry, error) {
			compiled = true
			return &CacheEntry{}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return compiled, hit
	}
	lookup(testKey(1))
	lookup(testKey(2))
	for i := 0; i < 3; i++ {
		if compiled, hit := lookup(testKey(3)); !compiled || hit {
			t.Fatalf("lookup %d of the key past the bound: compiled=%v hit=%v", i, compiled, hit)
		}
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	for _, k := range []CacheKey{testKey(1), testKey(2)} {
		if compiled, hit := lookup(k); compiled || !hit {
			t.Fatalf("stored key: compiled=%v hit=%v, want a hit", compiled, hit)
		}
	}
	if st := c.Stats(); st.Lookups != 7 || st.Misses != 5 || st.Hits != 2 {
		t.Fatalf("stats = %+v, want 7 lookups, 5 misses, 2 hits", st)
	}
}

// TestCacheNeedRemarksUpgrade: a hit on an entry without a fate ledger, when
// the caller needs one, recompiles (observed) and replaces the entry; both
// observed and unobserved callers hit the upgraded entry afterwards.
func TestCacheNeedRemarksUpgrade(t *testing.T) {
	c := NewCache(0)
	key := testKey(4)
	bare := &CacheEntry{}
	c.GetOrCompile(key, false, func() (*CacheEntry, error) { return bare, nil })

	upgraded := &CacheEntry{Remarks: obs.NewRemarks()}
	entry, hit, err := c.GetOrCompile(key, true, func() (*CacheEntry, error) { return upgraded, nil })
	if err != nil || hit || entry != upgraded {
		t.Fatalf("upgrade path: entry==upgraded=%v hit=%v err=%v", entry == upgraded, hit, err)
	}
	entry, hit, _ = c.GetOrCompile(key, true, func() (*CacheEntry, error) {
		t.Fatal("recompiled after upgrade")
		return nil, nil
	})
	if !hit || entry != upgraded {
		t.Fatal("observed lookup missed the upgraded entry")
	}
	entry, hit, _ = c.GetOrCompile(key, false, func() (*CacheEntry, error) {
		t.Fatal("recompiled after upgrade")
		return nil, nil
	})
	if !hit || entry != upgraded {
		t.Fatal("unobserved lookup missed the upgraded entry")
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d, want 1 (upgrade replaces in place)", c.Len())
	}
}

// TestCacheKeyIsComparable guards the CacheKey contract: it must stay a pure
// value type (map key), which fmt can render for debugging.
func TestCacheKeyIsComparable(t *testing.T) {
	m := map[CacheKey]int{}
	p, _ := sample()
	k := Key(p, ConfigPhase1Phase2(), arch.IA32Win())
	m[k]++
	m[Key(p, ConfigPhase1Phase2(), arch.IA32Win())]++
	if len(m) != 1 || m[k] != 2 {
		t.Fatalf("equal inputs produced %d distinct keys", len(m))
	}
	_ = fmt.Sprint(k)
}

// TestCacheCompile pins the one cached compile path: the key covers the
// speculation and demote sets of the options, a structurally identical
// rebuild hits the stored entry, a fate ledger in the observer demands (and
// is stored by) the compile.
func TestCacheCompile(t *testing.T) {
	model := arch.IA32Win()
	cfg := ConfigPhase1Phase2()
	c := NewCache(0)
	compile := func(opts CompileOptions) (*ir.Program, *CacheEntry, bool) {
		t.Helper()
		p, _ := sample()
		e, hit, err := c.Compile(p, cfg, model, opts)
		if err != nil {
			t.Fatal(err)
		}
		return p, e, hit
	}

	p0, e0, hit := compile(CompileOptions{})
	if hit || e0.Program != p0 || e0.Result == nil {
		t.Fatalf("cold compile: hit=%v, entry program is the compiled one: %v", hit, e0.Program == p0)
	}
	if _, e, hit := compile(CompileOptions{}); !hit || e != e0 {
		t.Fatal("structurally identical rebuild missed the stored entry")
	}
	if _, e, hit := compile(CompileOptions{Spec: SpecSet{"C.getF": {0}}}); hit || e == e0 {
		t.Fatal("speculative compile shares the conservative entry")
	}
	if _, e, hit := compile(CompileOptions{Demote: DemoteSet{"C.getF": {0}}}); hit || e == e0 {
		t.Fatal("demoted compile shares the conservative entry")
	}
	rem := obs.NewRemarks()
	if _, e, hit := compile(CompileOptions{Observer: &Observer{Remarks: rem}}); hit || e.Remarks != rem {
		t.Fatalf("observed compile: hit=%v, entry keeps the observer's ledger: %v", hit, e.Remarks == rem)
	}
	if st := c.Stats(); st.Lookups != 5 || st.Misses != 4 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want 5 lookups, 4 misses, 1 hit", st)
	}
}

// TestCacheKeysModelByValue: two models that share a name but differ in a
// field the passes consult must not share an artifact. BigOffsetWalk's 64 KB
// field offset lies outside a 4 KB protected area but inside a 512 KB one,
// so phase 2 leaves an explicit check under the first and none under the
// second; one cache must hand each model its own compile.
func TestCacheKeysModelByValue(t *testing.T) {
	cfg := ConfigPhase1Phase2()
	small, big := arch.IA32Win(), arch.IA32Win()
	small.TrapAreaBytes, big.TrapAreaBytes = 4<<10, 512<<10
	w := workloads.BigOffsetWalk()

	p, _ := w.Build()
	if Key(p, cfg, small) == Key(p, cfg, big) {
		t.Fatal("models differing only in TrapAreaBytes share a cache key")
	}
	if Key(p, cfg, small).ID() != Key(p, cfg, big).ID() {
		t.Fatal("key ID must name the model, not print its fields")
	}

	fresh, _ := w.Build()
	res, err := CompileProgram(fresh, cfg, big)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache(0)
	for _, m := range []*arch.Model{small, big} {
		p, _ := w.Build()
		if _, _, err := c.Compile(p, cfg, m, CompileOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	p, _ = w.Build()
	e, _, err := c.Compile(p, cfg, big, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := e.Result.Checks.ExplicitRemaining, res.Checks.ExplicitRemaining; got != want {
		t.Fatalf("cache served the 512 KB model an artifact with %d explicit checks, a fresh compile leaves %d", got, want)
	}
	if st := c.Stats(); st.Misses != 2 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want 2 misses (one per model) and 1 hit", st)
	}
}
