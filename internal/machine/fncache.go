package machine

import "trapnull/internal/ir"

// fnCache is a bounded map from *ir.Func to a per-function artifact (the
// prepared-operand table and closure-compiled code) with deterministic
// clock/second-chance eviction.
//
// A full-drop scheme would empty the cache whenever it reached its bound, so
// a sweep touching a few more functions than the bound would re-prepare the
// whole working set on every lap. Second-chance instead
// evicts exactly one cold entry per insertion: entries sit in a ring with a
// reference bit that get() sets and the rotating hand clears; the first
// unreferenced slot the hand finds is the victim. Everything is driven by
// insertion and access order alone — no clocks, no randomness — so eviction
// is reproducible run to run, which the sweep determinism tests rely on.
//
// The index map and the ring grow with the functions a machine actually
// runs, up to the bound: most machines run a handful of functions once, so
// nothing is sized for the bound up front.
type fnCache[V any] struct {
	cap  int
	idx  map[*ir.Func]int // key -> ring slot
	keys []*ir.Func
	vals []V
	ref  []bool
	hand int
}

func newFnCache[V any](capacity int) *fnCache[V] {
	if capacity < 1 {
		capacity = 1
	}
	return &fnCache[V]{cap: capacity, idx: make(map[*ir.Func]int)}
}

// get returns the cached value and marks the entry recently used.
func (c *fnCache[V]) get(fn *ir.Func) (V, bool) {
	if i, ok := c.idx[fn]; ok {
		c.ref[i] = true
		return c.vals[i], true
	}
	var zero V
	return zero, false
}

// put inserts or replaces fn's entry, evicting one cold entry when full.
func (c *fnCache[V]) put(fn *ir.Func, v V) {
	if i, ok := c.idx[fn]; ok {
		c.vals[i] = v
		c.ref[i] = true
		return
	}
	// New entries are inserted with the reference bit CLEAR. Inserting with
	// the bit set makes a pure insertion stream degenerate into burst
	// rotations: every ~cap insertions the hand clears the whole ring in one
	// sweep (including hot entries refreshed moments earlier) and then
	// evicts slot after slot before the hot set's next use can re-mark it.
	// With ref=0 on insert the stream is recycled FIFO-fashion one slot per
	// insertion and only genuinely re-used entries carry a set bit, so a hot
	// entry is always re-marked long before the hand returns to it.
	if len(c.keys) < c.cap {
		c.idx[fn] = len(c.keys)
		c.keys = append(c.keys, fn)
		c.vals = append(c.vals, v)
		c.ref = append(c.ref, false)
		return
	}
	// Second chance: clear reference bits until an unreferenced slot comes
	// under the hand. Terminates within 2·cap steps because each clear is
	// permanent for this scan.
	for c.ref[c.hand] {
		c.ref[c.hand] = false
		c.hand = (c.hand + 1) % c.cap
	}
	victim := c.hand
	delete(c.idx, c.keys[victim])
	c.keys[victim] = fn
	c.vals[victim] = v
	c.ref[victim] = false
	c.idx[fn] = victim
	c.hand = (c.hand + 1) % c.cap
}

// reset drops every entry and rewinds the hand, releasing the cached values
// so the garbage collector can reclaim dead functions.
func (c *fnCache[V]) reset() {
	clear(c.idx)
	var zero V
	for i := range c.keys {
		c.keys[i] = nil
		c.vals[i] = zero
	}
	c.keys = c.keys[:0]
	c.vals = c.vals[:0]
	c.ref = c.ref[:0]
	c.hand = 0
}

// size returns the number of live entries.
func (c *fnCache[V]) size() int { return len(c.keys) }

// contains reports residency without touching the reference bit (tests need
// a probe that does not itself keep the entry alive).
func (c *fnCache[V]) contains(fn *ir.Func) bool {
	_, ok := c.idx[fn]
	return ok
}
