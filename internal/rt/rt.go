// Package rt implements the simulated runtime the compiled code runs
// against: a flat word-addressed heap with the address-space layout the
// paper's trap mechanism depends on, object and array allocation, and the
// exception kinds of the source language.
//
// Address space:
//
//	[0, trapArea)        protected page(s): an access here is a hardware
//	                     trap candidate — whether it actually traps depends
//	                     on the architecture model and the access kind
//	[trapArea, HeapBase) unprotected gap: models memory a big-offset access
//	                     through a null reference could hit without any
//	                     trap (Figure 5(1)); reads yield zero, writes are
//	                     swallowed
//	[HeapBase, ...)      the real heap, bump-allocated
package rt

import (
	"fmt"

	"trapnull/internal/ir"
)

// HeapBase is the address of the first heap word. It exceeds the largest
// field offset the source language permits (512 KB, JVM spec §4 as cited by
// the paper), so a null-based big-offset access always lands in the
// unprotected gap, never on a live object.
const HeapBase = int64(1) << 20

// ExcKind enumerates the exceptions the runtime can raise.
type ExcKind int32

const (
	ExcNone ExcKind = iota
	ExcNullPointer
	ExcArrayIndexOutOfBounds
	ExcArithmetic
	ExcNegativeArraySize
)

func (k ExcKind) String() string {
	switch k {
	case ExcNone:
		return "none"
	case ExcNullPointer:
		return "NullPointerException"
	case ExcArrayIndexOutOfBounds:
		return "ArrayIndexOutOfBoundsException"
	case ExcArithmetic:
		return "ArithmeticException"
	case ExcNegativeArraySize:
		return "NegativeArraySizeException"
	}
	return fmt.Sprintf("exc(%d)", int32(k))
}

// excClassBase distinguishes exception object headers from user class IDs
// (user class IDs are small positive numbers).
const excClassBase = int64(1) << 40

// MaxWords caps the heap. An allocation that would take it past this many
// words is refused, so no program can make the host allocate without bound
// or overflow the bump pointer; the largest heap a sweep builds is 38,195
// words.
const MaxWords = int64(1) << 24

// Heap is the simulated memory.
//
// A machine reclaims a finished top-level invocation's allocations once
// nothing outside the heap can reach them: EndInvocation marks them as
// garbage and the next BeginInvocation releases them, so later invocations
// reuse the same words. Until that next invocation begins, the heap an
// invocation left stays intact and readable with Peek.
type Heap struct {
	// words are the heap cells: words[i] is address HeapBase + 8*i, and
	// len(words) is the bump pointer.
	words []int64
	// garbage is the word count the last EndInvocation marked every word
	// at or above as garbage, or -1. Any allocation clears it, since the
	// words it would release may then be reachable.
	garbage int
}

// NewHeap returns an empty heap. Its words grow with the run's allocations
// (AllocWords doubles them); addresses never depend on capacity.
func NewHeap() *Heap {
	return &Heap{garbage: -1}
}

// Reset discards all allocations and any garbage mark.
func (h *Heap) Reset() {
	h.words = h.words[:0]
	h.garbage = -1
}

// BeginInvocation starts a top-level invocation and returns its mark: the
// number of words allocated before it. First it releases the words the
// last EndInvocation marked, unless something was allocated since.
func (h *Heap) BeginInvocation() (mark int) {
	if h.garbage >= 0 {
		h.words = h.words[:h.garbage]
		h.garbage = -1
	}
	return len(h.words)
}

// EndInvocation marks everything allocated since mark as garbage, which the
// next BeginInvocation releases. The caller vouches that nothing outside the
// heap refers to those words.
func (h *Heap) EndInvocation(mark int) {
	h.garbage = mark
}

// AllocWords allocates n zeroed words and returns the base address, or 0
// (null) when that would take the heap past MaxWords.
func (h *Heap) AllocWords(n int64) int64 {
	if n < 0 {
		panic("rt: negative allocation")
	}
	used := int64(len(h.words))
	if n > MaxWords-used {
		return 0
	}
	h.garbage = -1
	need := used + n
	if need <= int64(cap(h.words)) {
		// Reset and BeginInvocation keep capacity, so re-extended cells
		// hold stale values and must be re-zeroed.
		h.words = h.words[:need]
		clear(h.words[used:])
	} else {
		newCap := 2 * int64(cap(h.words))
		if newCap < need {
			newCap = need
		}
		grown := make([]int64, need, newCap)
		copy(grown, h.words)
		h.words = grown
	}
	return HeapBase + used*ir.WordBytes
}

// AllocObject allocates an object of the given class: header word holding
// the class ID, then its fields, zeroed. It returns 0 when the heap is full.
func (h *Heap) AllocObject(c *ir.Class) int64 {
	n := int64(c.SizeBytes) / ir.WordBytes
	if int64(c.SizeBytes)%ir.WordBytes != 0 {
		n++
	}
	addr := h.AllocWords(n)
	h.store(addr, int64(c.ID))
	return addr
}

// AllocArray allocates an array of length words: the length slot at offset
// zero, then the elements. It returns 0 when the heap is full.
func (h *Heap) AllocArray(length int64) int64 {
	if length >= MaxWords { // refused before length+1 can overflow
		return 0
	}
	addr := h.AllocWords(length + 1)
	h.store(addr, length)
	return addr
}

// AllocException allocates an exception object for kind k. It returns 0
// when the heap is full.
func (h *Heap) AllocException(k ExcKind) int64 {
	addr := h.AllocWords(2)
	h.store(addr, excClassBase+int64(k))
	return addr
}

// ExcKindOf returns the exception kind of the object at ref, or ExcNone.
func (h *Heap) ExcKindOf(ref int64) ExcKind {
	if ref < HeapBase {
		return ExcNone
	}
	hdr, ok := h.Peek(ref)
	if !ok || hdr < excClassBase {
		return ExcNone
	}
	return ExcKind(hdr - excClassBase)
}

// ClassIDOf returns the header word of the object at ref.
func (h *Heap) ClassIDOf(ref int64) int64 {
	v, _ := h.Peek(ref)
	return v
}

// Peek reads a heap word without access semantics (for inspection only).
func (h *Heap) Peek(addr int64) (int64, bool) {
	i := (addr - HeapBase) / ir.WordBytes
	if addr < HeapBase || i >= int64(len(h.words)) {
		return 0, false
	}
	return h.words[i], true
}

// store writes a heap word, ignoring out-of-range addresses (the caller has
// validated allocation).
func (h *Heap) store(addr, v int64) {
	i := (addr - HeapBase) / ir.WordBytes
	if addr >= HeapBase && i < int64(len(h.words)) {
		h.words[i] = v
	}
}

// AccessResult describes the outcome of a memory access.
type AccessResult int

const (
	// AccessOK: the access hit live heap.
	AccessOK AccessResult = iota
	// AccessTrapCandidate: the address lies in the protected area; whether
	// the machine turns it into a trap depends on the model.
	AccessTrapCandidate
	// AccessGarbage: the address lies in the unprotected gap or past the
	// heap: reads yield zero, writes vanish, no trap ever fires.
	AccessGarbage
)

// Classify reports what region an access to addr touches given the
// protected-area size.
func (h *Heap) Classify(addr, trapArea int64) AccessResult {
	switch {
	case addr >= 0 && addr < trapArea:
		return AccessTrapCandidate
	case addr >= HeapBase && (addr-HeapBase)/ir.WordBytes < int64(len(h.words)):
		return AccessOK
	default:
		return AccessGarbage
	}
}

// Load reads the word at addr assuming Classify returned AccessOK.
func (h *Heap) Load(addr int64) int64 {
	return h.words[(addr-HeapBase)/ir.WordBytes]
}

// Store writes the word at addr assuming Classify returned AccessOK.
func (h *Heap) Store(addr, v int64) {
	h.words[(addr-HeapBase)/ir.WordBytes] = v
}

// TryLoad reads the word at addr when addr is at or above lo and inside the
// live heap. lo must be at least HeapBase; with lo = max(HeapBase, trapArea)
// the test is exactly Classify(addr, trapArea)'s AccessOK arm, done once
// (the index compare also bounds the read).
func (h *Heap) TryLoad(addr, lo int64) (int64, bool) {
	if i := uint64(addr-HeapBase) / ir.WordBytes; addr >= lo && i < uint64(len(h.words)) {
		return h.words[i], true
	}
	return 0, false
}

// TryStore is TryLoad's write: it stores v and reports true under the same
// test, and leaves the heap untouched otherwise.
func (h *Heap) TryStore(addr, lo, v int64) bool {
	if i := uint64(addr-HeapBase) / ir.WordBytes; addr >= lo && i < uint64(len(h.words)) {
		h.words[i] = v
		return true
	}
	return false
}

// LiveWords returns the number of allocated words (for stats).
func (h *Heap) LiveWords() int { return len(h.words) }
