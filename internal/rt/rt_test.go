package rt

import (
	"testing"
	"testing/quick"

	"trapnull/internal/ir"
)

func TestAllocObjectLayout(t *testing.T) {
	h := NewHeap()
	cls := &ir.Class{Name: "C", ID: 7, SizeBytes: 24}
	addr := h.AllocObject(cls)
	if addr != HeapBase {
		t.Fatalf("first allocation at %#x, want HeapBase %#x", addr, HeapBase)
	}
	if got := h.ClassIDOf(addr); got != 7 {
		t.Fatalf("header = %d, want class ID 7", got)
	}
	// Fields start zeroed.
	if v, ok := h.Peek(addr + 8); !ok || v != 0 {
		t.Fatalf("field not zeroed: %d ok=%v", v, ok)
	}
}

func TestAllocArrayLengthSlot(t *testing.T) {
	h := NewHeap()
	arr := h.AllocArray(5)
	if v, ok := h.Peek(arr); !ok || v != 5 {
		t.Fatalf("length slot = %d ok=%v, want 5", v, ok)
	}
	h.Store(arr+ir.ArrayHeaderBytes+3*ir.WordBytes, 99)
	if got := h.Load(arr + ir.ArrayHeaderBytes + 3*ir.WordBytes); got != 99 {
		t.Fatalf("element = %d, want 99", got)
	}
}

func TestAllocationsDoNotOverlap(t *testing.T) {
	h := NewHeap()
	a := h.AllocArray(4) // 5 words
	b := h.AllocArray(4)
	if b < a+5*ir.WordBytes {
		t.Fatalf("allocations overlap: %#x then %#x", a, b)
	}
	h.Store(a+ir.ArrayHeaderBytes, 1)
	h.Store(b+ir.ArrayHeaderBytes, 2)
	if h.Load(a+ir.ArrayHeaderBytes) != 1 {
		t.Fatal("write to b clobbered a")
	}
}

func TestClassifyRegions(t *testing.T) {
	h := NewHeap()
	addr := h.AllocArray(2)
	const trapArea = 4096
	cases := []struct {
		addr int64
		want AccessResult
	}{
		{0, AccessTrapCandidate},
		{8, AccessTrapCandidate},
		{trapArea - 8, AccessTrapCandidate},
		{trapArea, AccessGarbage},
		{HeapBase - 8, AccessGarbage},
		{addr, AccessOK},
		{addr + 16, AccessOK},
		{h.next, AccessGarbage}, // just past the bump pointer
	}
	for _, c := range cases {
		if got := h.Classify(c.addr, trapArea); got != c.want {
			t.Fatalf("Classify(%#x) = %v, want %v", c.addr, got, c.want)
		}
	}
}

func TestExceptionObjects(t *testing.T) {
	h := NewHeap()
	for _, k := range []ExcKind{ExcNullPointer, ExcArrayIndexOutOfBounds, ExcArithmetic, ExcNegativeArraySize} {
		ref := h.AllocException(k)
		if got := h.ExcKindOf(ref); got != k {
			t.Fatalf("ExcKindOf = %v, want %v", got, k)
		}
	}
	// Non-exception objects report ExcNone.
	cls := &ir.Class{Name: "C", ID: 1, SizeBytes: 16}
	obj := h.AllocObject(cls)
	if h.ExcKindOf(obj) != ExcNone {
		t.Fatal("plain object classified as exception")
	}
	if h.ExcKindOf(0) != ExcNone {
		t.Fatal("null classified as exception")
	}
}

func TestResetClearsHeap(t *testing.T) {
	h := NewHeap()
	h.AllocArray(10)
	h.Reset()
	if h.LiveWords() != 0 {
		t.Fatalf("LiveWords = %d after Reset", h.LiveWords())
	}
	if addr := h.AllocArray(1); addr != HeapBase {
		t.Fatalf("allocation after Reset at %#x, want HeapBase", addr)
	}
}

func TestExcKindStrings(t *testing.T) {
	if ExcNullPointer.String() != "NullPointerException" {
		t.Fatalf("got %q", ExcNullPointer.String())
	}
	if ExcNone.String() != "none" {
		t.Fatalf("got %q", ExcNone.String())
	}
}

func TestQuickLoadStoreRoundTrip(t *testing.T) {
	h := NewHeap()
	arr := h.AllocArray(64)
	f := func(idx uint8, v int64) bool {
		i := int64(idx % 64)
		addr := arr + ir.ArrayHeaderBytes + i*ir.WordBytes
		h.Store(addr, v)
		return h.Load(addr) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickAllocationAlwaysInHeapRegion(t *testing.T) {
	f := func(sizes []uint8) bool {
		h := NewHeap()
		const trapArea = 4096
		for _, s := range sizes {
			addr := h.AllocWords(int64(s%32) + 1)
			if h.Classify(addr, trapArea) != AccessOK {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestTryLoadStoreMatchClassify pins the closure engine's heap fast path:
// with lo = max(HeapBase, trapArea), TryLoad and TryStore succeed exactly
// where Classify reports AccessOK — including a custom trap area reaching
// past HeapBase into the live heap — and touch the word Load would.
func TestTryLoadStoreMatchClassify(t *testing.T) {
	h := NewHeap()
	h.AllocArray(6)
	end := HeapBase + int64(h.LiveWords())*ir.WordBytes
	addrs := []int64{-1 << 40, -8, -1, 0, 7, 4095, 4096, HeapBase - 8, HeapBase - 1,
		HeapBase, HeapBase + 1, HeapBase + 20, HeapBase + 24, end - 8, end - 1, end, end + 8}
	for _, trapArea := range []int64{0, 4096, 512 << 10, HeapBase, HeapBase + 24, end + 64} {
		lo := max(HeapBase, trapArea)
		for _, addr := range addrs {
			ok := h.Classify(addr, trapArea) == AccessOK
			v, got := h.TryLoad(addr, lo)
			if got != ok {
				t.Fatalf("trapArea %d addr %#x: TryLoad ok=%v, Classify AccessOK=%v", trapArea, addr, got, ok)
			}
			if !ok {
				if h.TryStore(addr, lo, 1) {
					t.Fatalf("trapArea %d addr %#x: TryStore stored outside AccessOK", trapArea, addr)
				}
				continue
			}
			if v != h.Load(addr) {
				t.Fatalf("addr %#x: TryLoad read %d, Load %d", addr, v, h.Load(addr))
			}
			if !h.TryStore(addr, lo, addr) || h.Load(addr) != addr {
				t.Fatalf("addr %#x: TryStore did not write the word Load reads", addr)
			}
		}
	}
}

// TestHeapGrowsFromEmpty: a new heap holds no words; the first allocation
// sizes it exactly, later ones double its capacity, and Reset keeps the
// capacity but re-zeroes every stale word it hands out again. Addresses
// depend on allocation order alone, never on capacity.
func TestHeapGrowsFromEmpty(t *testing.T) {
	h := NewHeap()
	if cap(h.words) != 0 || h.LiveWords() != 0 {
		t.Fatalf("new heap holds %d words (cap %d), want none", h.LiveWords(), cap(h.words))
	}
	a := h.AllocArray(3) // 4 words
	if a != HeapBase || cap(h.words) != 4 {
		t.Fatalf("first allocation at %#x with cap %d, want %#x with cap 4", a, cap(h.words), HeapBase)
	}
	b := h.AllocArray(1) // 2 words: needs 6, doubles to 8
	if b != HeapBase+4*ir.WordBytes || cap(h.words) != 8 {
		t.Fatalf("second allocation at %#x with cap %d, want %#x with cap 8", b, cap(h.words), HeapBase+4*ir.WordBytes)
	}
	for i := int64(0); i < 3; i++ {
		h.Store(a+ir.ArrayHeaderBytes+i*ir.WordBytes, 100+i)
	}
	h.Store(b+ir.ArrayHeaderBytes, 7)

	h.Reset()
	if h.LiveWords() != 0 || cap(h.words) != 8 {
		t.Fatalf("after Reset: %d live words, cap %d; want 0 live, cap 8 kept", h.LiveWords(), cap(h.words))
	}
	// Re-extension within the kept capacity: same addresses, zeroed cells.
	a2 := h.AllocWords(6)
	if a2 != a {
		t.Fatalf("post-Reset allocation at %#x, want %#x", a2, a)
	}
	for i := int64(0); i < 6; i++ {
		if v, ok := h.Peek(a2 + i*ir.WordBytes); !ok || v != 0 {
			t.Fatalf("word %d after Reset = %d ok=%v, want a re-zeroed 0", i, v, ok)
		}
	}
	// Past the kept capacity the heap doubles again and keeps the contents.
	h.Store(a2, 42)
	c := h.AllocWords(5)
	if c != HeapBase+6*ir.WordBytes || cap(h.words) != 16 {
		t.Fatalf("growth past Reset capacity at %#x with cap %d, want %#x with cap 16", c, cap(h.words), HeapBase+6*ir.WordBytes)
	}
	if v, _ := h.Peek(a2); v != 42 {
		t.Fatalf("growth lost a live word: got %d, want 42", v)
	}
}
