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
	k.Model = "m"
	k.Program[0] = byte(i)
	k.Program[1] = byte(i >> 8)
	return k
}

// TestCacheSingleFlight: n concurrent lookups of one cold key run compile
// exactly once; everyone else blocks on the flight and counts as a hit.
func TestCacheSingleFlight(t *testing.T) {
	c := NewCache(0)
	key := testKey(1)
	var mu sync.Mutex
	compiles := 0
	var wg sync.WaitGroup
	const n = 8
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, err := c.GetOrCompile(key, false, func() (*CacheEntry, error) {
				mu.Lock()
				compiles++
				mu.Unlock()
				return &CacheEntry{}, nil
			})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if compiles != 1 {
		t.Fatalf("compile ran %d times, want 1", compiles)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != n-1 || st.Lookups != n {
		t.Fatalf("stats = %+v, want 1 miss / %d hits / %d lookups", st, n-1, n)
	}
}

// TestCacheErrorNotCached: a failed compile propagates to its waiters but
// leaves no entry behind, so the next lookup retries.
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

// TestCacheEvictionDeterministic pins second-chance eviction: at capacity,
// inserting a new key evicts the cold entry (the one not touched since
// insertion), and the choice is a pure function of the access history.
func TestCacheEvictionDeterministic(t *testing.T) {
	run := func() (hot, cold bool) {
		c := NewCache(2)
		fresh := func(k CacheKey) {
			if _, hit, _ := c.GetOrCompile(k, false, func() (*CacheEntry, error) {
				return &CacheEntry{}, nil
			}); hit {
				t.Fatal("unexpected hit")
			}
		}
		lookup := func(k CacheKey) bool {
			_, hit, _ := c.GetOrCompile(k, false, func() (*CacheEntry, error) {
				return &CacheEntry{}, nil
			})
			return hit
		}
		fresh(testKey(1))
		fresh(testKey(2))
		if !lookup(testKey(1)) { // mark 1 hot
			t.Fatal("warm entry missed")
		}
		fresh(testKey(3)) // forces one eviction
		if c.Len() != 2 {
			t.Fatalf("len = %d, want 2", c.Len())
		}
		if c.Stats().Evictions != 1 {
			t.Fatalf("evictions = %d, want 1", c.Stats().Evictions)
		}
		return lookup(testKey(1)), lookup(testKey(2))
	}
	hot1, cold1 := run()
	if !hot1 || cold1 {
		t.Fatalf("second chance broken: hot survived=%v, cold survived=%v", hot1, cold1)
	}
	hot2, cold2 := run()
	if hot1 != hot2 || cold1 != cold2 {
		t.Fatal("eviction not deterministic across runs")
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
// is stored by) the compile, and a nil cache compiles every time.
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

	var none *Cache
	p, _ := sample()
	e, hit, err := none.Compile(p, cfg, model, CompileOptions{})
	if err != nil || hit || e.Program != p || e.Result == nil {
		t.Fatalf("nil cache: hit=%v err=%v", hit, err)
	}
}
