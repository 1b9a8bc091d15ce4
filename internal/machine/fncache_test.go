package machine

import (
	"testing"

	"trapnull/internal/arch"
	"trapnull/internal/ir"
)

// TestFnCacheSecondChance pins the eviction discipline: when the cache is
// full, exactly one cold entry is evicted per insertion, and the choice is a
// pure function of the access history (no clocks, no randomness).
func TestFnCacheSecondChance(t *testing.T) {
	run := func() (aOK, bOK bool) {
		c := newFnCache[int](2)
		a, b, d := boundedFn(), boundedFn(), boundedFn()
		c.put(a, 1)
		c.put(b, 2)
		if c.size() != 2 {
			t.Fatalf("size = %d, want 2", c.size())
		}
		if v, ok := c.get(a); !ok || v != 1 {
			t.Fatalf("get(a) = %d,%v", v, ok)
		}
		c.put(d, 3)
		if _, ok := c.get(d); !ok {
			t.Fatal("freshly inserted entry missing")
		}
		if c.size() != 2 {
			t.Fatalf("size after eviction = %d, want 2", c.size())
		}
		_, aOK = c.get(a)
		_, bOK = c.get(b)
		return aOK, bOK
	}
	a1, b1 := run()
	if a1 == b1 {
		t.Fatalf("expected exactly one of a/b evicted: a=%v b=%v", a1, b1)
	}
	a2, b2 := run()
	if a1 != a2 || b1 != b2 {
		t.Fatalf("eviction not deterministic: run1 a=%v b=%v, run2 a=%v b=%v", a1, b1, a2, b2)
	}
}

// TestFnCacheUpdateInPlace: re-putting an existing key replaces the value
// without growing the ring or evicting anything.
func TestFnCacheUpdateInPlace(t *testing.T) {
	c := newFnCache[int](2)
	a, b := boundedFn(), boundedFn()
	c.put(a, 1)
	c.put(b, 2)
	c.put(a, 10)
	if v, ok := c.get(a); !ok || v != 10 {
		t.Fatalf("get(a) after update = %d,%v, want 10,true", v, ok)
	}
	if v, ok := c.get(b); !ok || v != 2 {
		t.Fatalf("get(b) after update = %d,%v, want 2,true", v, ok)
	}
	if c.size() != 2 {
		t.Fatalf("size = %d, want 2", c.size())
	}
}

// TestPreparedCacheNoThrash is the sweep-sized regression for the full-drop
// eviction this cache replaced. The sweep/triage access pattern is a small
// HOT set (the workload methods executed in every cell) interleaved with a
// long stream of transient functions (bisection snapshots, fuzz programs).
// The old scheme wiped the whole table every time the transient stream hit
// the bound, so the hot set was re-prepared over and over; second-chance
// eviction keeps the hot entries resident (their reference bits are set
// again on every use, so the hand always passes them by) and only recycles
// the cold stream.
func TestPreparedCacheNoThrash(t *testing.T) {
	p, _ := prog()
	m := New(arch.IA32Win(), p)
	m.Engine = EngineClosure

	const hotN = 16
	hot := make([]*ir.Func, hotN)
	for i := range hot {
		hot[i] = boundedFn()
	}

	// Count how often a hot function must be re-prepared and re-compiled:
	// residency is probed without touching the reference bit, so the
	// measurement itself cannot keep entries alive.
	hotMisses := 0
	callHot := func() {
		for _, fn := range hot {
			if !m.fns.contains(fn) {
				hotMisses++
			}
			if _, err := m.Call(fn, 3); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Three full cache generations of transient functions, with the hot set
	// re-executed between each batch (the per-cell rhythm of a sweep).
	const stream = 3 * maxPreparedFuncs
	const batch = 32
	callHot() // initial fill: exactly hotN cold misses
	for i := 0; i < stream; i += batch {
		for j := 0; j < batch; j++ {
			if _, err := m.Call(boundedFn(), 3); err != nil {
				t.Fatal(err)
			}
		}
		callHot()
	}

	// The only acceptable hot misses are the initial fill. Full-drop
	// eviction lost the hot set on every generation (~hotN × stream/cap
	// extra rebuilds); allow a tiny margin for hand collisions.
	budget := hotN + hotN/2
	if hotMisses > budget {
		t.Fatalf("hot set thrashing: %d hot-entry misses (budget %d)", hotMisses, budget)
	}
	if m.fns.size() > maxPreparedFuncs {
		t.Fatalf("cache exceeded bound: %d > %d", m.fns.size(), maxPreparedFuncs)
	}
}
