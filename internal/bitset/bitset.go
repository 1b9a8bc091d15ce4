// Package bitset provides dense bit vectors sized for data-flow analysis.
//
// The null check analyses in this repository are bit-vector problems whose
// elements are local-variable indices; every lattice value is a Set. Sets are
// mutable and cheap to copy, and all binary operations require operands of
// identical length so that a mismatch is caught immediately rather than
// silently truncated.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a fixed-size bit vector. The zero value is an empty set of size 0.
type Set struct {
	n     int
	words []uint64
	// inline backs words for sets of up to 3*64 elements, making New a
	// single heap object instead of header-plus-backing. Data-flow sets here
	// are indexed by local-variable number, which rarely exceeds 192.
	inline [3]uint64
}

// New returns an empty set able to hold elements 0..n-1.
func New(n int) *Set {
	if n < 0 {
		panic(fmt.Sprintf("bitset: negative size %d", n))
	}
	w := (n + wordBits - 1) / wordBits
	s := &Set{n: n}
	if w <= len(s.inline) {
		s.words = s.inline[:w]
	} else {
		s.words = make([]uint64, w)
	}
	return s
}

// NewFull returns a set of size n with every bit set.
func NewFull(n int) *Set {
	s := New(n)
	s.Fill()
	return s
}

// NewSlab returns count independent empty sets of size n carved out of a
// single backing allocation.
func NewSlab(count, n int) []*Set {
	return new(Slab).Carve(count, n)
}

// Slab is reusable storage for many sets of one size: a data-flow solver
// materializing In/Out sets (and gen/kill summaries) for every block of a
// function carves them all out of one slab, and a pooled slab is carved again
// by the next solve without allocating once it is large enough.
type Slab struct {
	words []uint64
	hdrs  []Set
	sets  []*Set
}

// Carve returns count empty sets of size n backed by the slab, growing its
// storage only when it is too small. It invalidates every set carved from
// the slab before: their storage is reused.
func (sl *Slab) Carve(count, n int) []*Set {
	if n < 0 || count < 0 {
		panic(fmt.Sprintf("bitset: negative slab dimensions %d×%d", count, n))
	}
	w := (n + wordBits - 1) / wordBits
	sl.words = reuse(sl.words, count*w)
	if cap(sl.hdrs) < count {
		sl.hdrs = make([]Set, count)
		sl.sets = make([]*Set, count)
	}
	sl.hdrs, sl.sets = sl.hdrs[:count], sl.sets[:count]
	for i := range sl.hdrs {
		sl.hdrs[i] = Set{n: n, words: sl.words[i*w : (i+1)*w : (i+1)*w]}
		sl.sets[i] = &sl.hdrs[i]
	}
	return sl.sets
}

// Reset makes s an empty set able to hold elements 0..n-1, reusing its
// storage when it is large enough.
func (s *Set) Reset(n int) {
	if n < 0 {
		panic(fmt.Sprintf("bitset: negative size %d", n))
	}
	s.n = n
	s.words = reuse(s.words, (n+wordBits-1)/wordBits)
}

// reuse returns words resized to w zeroed words, allocating only when its
// capacity is too small.
func reuse(words []uint64, w int) []uint64 {
	if cap(words) < w {
		return make([]uint64, w)
	}
	words = words[:w]
	clear(words)
	return words
}

// Len returns the number of elements the set can hold.
func (s *Set) Len() int { return s.n }

func (s *Set) check(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitset: index %d out of range [0,%d)", i, s.n))
	}
}

func (s *Set) sameSize(t *Set) {
	if s.n != t.n {
		panic(fmt.Sprintf("bitset: size mismatch %d vs %d", s.n, t.n))
	}
}

// Add sets bit i.
func (s *Set) Add(i int) {
	s.check(i)
	s.words[i/wordBits] |= 1 << uint(i%wordBits)
}

// Remove clears bit i.
func (s *Set) Remove(i int) {
	s.check(i)
	s.words[i/wordBits] &^= 1 << uint(i%wordBits)
}

// Has reports whether bit i is set.
func (s *Set) Has(i int) bool {
	s.check(i)
	return s.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

// Clear resets every bit.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Fill sets every bit.
func (s *Set) Fill() {
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	s.trim()
}

// trim zeroes the unused high bits of the last word so that Equal and Count
// remain exact after Fill or Complement.
func (s *Set) trim() {
	if rem := s.n % wordBits; rem != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] &= (1 << uint(rem)) - 1
	}
}

// Copy returns an independent copy of s.
func (s *Set) Copy() *Set {
	t := New(s.n)
	copy(t.words, s.words)
	return t
}

// CopyFrom overwrites s with the contents of t.
func (s *Set) CopyFrom(t *Set) {
	s.sameSize(t)
	copy(s.words, t.words)
}

// Union sets s = s ∪ t and reports whether s changed.
func (s *Set) Union(t *Set) bool {
	s.sameSize(t)
	changed := false
	for i, w := range t.words {
		nw := s.words[i] | w
		if nw != s.words[i] {
			s.words[i] = nw
			changed = true
		}
	}
	return changed
}

// Intersect sets s = s ∩ t and reports whether s changed.
func (s *Set) Intersect(t *Set) bool {
	s.sameSize(t)
	changed := false
	for i, w := range t.words {
		nw := s.words[i] & w
		if nw != s.words[i] {
			s.words[i] = nw
			changed = true
		}
	}
	return changed
}

// Subtract sets s = s − t and reports whether s changed.
func (s *Set) Subtract(t *Set) bool {
	s.sameSize(t)
	changed := false
	for i, w := range t.words {
		nw := s.words[i] &^ w
		if nw != s.words[i] {
			s.words[i] = nw
			changed = true
		}
	}
	return changed
}

// UnionWith sets s = a ∪ b. The receiver may alias either operand; the
// three-operand form lets data-flow transfer functions combine sets without a
// temporary copy.
func (s *Set) UnionWith(a, b *Set) {
	s.sameSize(a)
	s.sameSize(b)
	for i := range s.words {
		s.words[i] = a.words[i] | b.words[i]
	}
}

// IntersectWith sets s = a ∩ b. The receiver may alias either operand.
func (s *Set) IntersectWith(a, b *Set) {
	s.sameSize(a)
	s.sameSize(b)
	for i := range s.words {
		s.words[i] = a.words[i] & b.words[i]
	}
}

// SubtractInto sets dst = s − t without modifying s. dst may alias either
// operand.
func (s *Set) SubtractInto(t, dst *Set) {
	s.sameSize(t)
	s.sameSize(dst)
	for i := range s.words {
		dst.words[i] = s.words[i] &^ t.words[i]
	}
}

// TransferInto sets s = (in − kill) ∪ gen — the standard gen/kill transfer
// function fused into one pass — and reports whether s changed. The receiver
// may alias in.
func (s *Set) TransferInto(in, kill, gen *Set) bool {
	s.sameSize(in)
	s.sameSize(kill)
	s.sameSize(gen)
	changed := false
	for i := range s.words {
		nw := (in.words[i] &^ kill.words[i]) | gen.words[i]
		if nw != s.words[i] {
			s.words[i] = nw
			changed = true
		}
	}
	return changed
}

// Complement sets s = ¬s.
func (s *Set) Complement() {
	for i := range s.words {
		s.words[i] = ^s.words[i]
	}
	s.trim()
}

// Equal reports whether s and t contain the same elements.
func (s *Set) Equal(t *Set) bool {
	if s.n != t.n {
		return false
	}
	for i, w := range s.words {
		if w != t.words[i] {
			return false
		}
	}
	return true
}

// IsEmpty reports whether no bit is set.
func (s *Set) IsEmpty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Count returns the number of set bits.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// NextSet returns the smallest set bit ≥ i, or -1 when none exists. A
// priority worklist over dense indices pops its minimum element with it.
func (s *Set) NextSet(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= s.n {
		return -1
	}
	wi := i / wordBits
	w := s.words[wi] >> uint(i%wordBits)
	if w != 0 {
		return i + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(s.words); wi++ {
		if s.words[wi] != 0 {
			return wi*wordBits + bits.TrailingZeros64(s.words[wi])
		}
	}
	return -1
}

// ForEach calls f for every set bit in ascending order.
func (s *Set) ForEach(f func(i int)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			f(wi*wordBits + b)
			w &= w - 1
		}
	}
}

// Elems returns the set bits in ascending order.
func (s *Set) Elems() []int {
	out := make([]int, 0, s.Count())
	s.ForEach(func(i int) { out = append(out, i) })
	return out
}

// String renders the set as {a, b, c}.
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) {
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "%d", i)
	})
	b.WriteByte('}')
	return b.String()
}
