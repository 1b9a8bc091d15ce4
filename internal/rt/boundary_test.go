package rt

import (
	"testing"

	"trapnull/internal/arch"
	"trapnull/internal/ir"
)

// TestClassifyBoundaries pins the byte-exact edges of the address-space
// layout for the trap-area sizes of the real models: the last byte inside the
// protected area is a trap candidate, the first byte past it is silent
// garbage, and addresses just below HeapBase never trap (Figure 5(1)).
func TestClassifyBoundaries(t *testing.T) {
	h := NewHeap()
	obj := h.AllocArray(2)

	models := []*arch.Model{arch.IA32Win(), arch.PPCAIX()}
	for _, m := range models {
		ta := m.TrapAreaBytes
		cases := []struct {
			name string
			addr int64
			want AccessResult
		}{
			{"first protected byte", 0, AccessTrapCandidate},
			{"last protected byte", ta - 1, AccessTrapCandidate},
			{"first unprotected byte", ta, AccessGarbage},
			{"mid gap", (ta + HeapBase) / 2, AccessGarbage},
			{"last gap word", HeapBase - ir.WordBytes, AccessGarbage},
			{"byte below HeapBase", HeapBase - 1, AccessGarbage},
			{"first heap word", obj, AccessOK},
		}
		for _, c := range cases {
			if got := h.Classify(c.addr, ta); got != c.want {
				t.Errorf("%s: Classify(%#x, %d) = %v, want %v", m.Name, c.addr, ta, got, c.want)
			}
		}
	}
}

// TestClassifyNegativeAddresses: a negative address (e.g. null base plus a
// negative offset after folding) must never be a trap candidate — the paper's
// mechanism only protects [0, trapArea), so phase 2 cannot rely on traps for
// such accesses and Classify must agree.
func TestClassifyNegativeAddresses(t *testing.T) {
	h := NewHeap()
	for _, addr := range []int64{-1, -8, -4096, -HeapBase, int64(-1) << 40} {
		if got := h.Classify(addr, 4096); got != AccessGarbage {
			t.Errorf("Classify(%d) = %v, want AccessGarbage", addr, got)
		}
	}
}

// TestTrapGuaranteeMatchesModel ties Classify to the per-model access-kind
// semantics: on IA32/Windows both reads and writes inside the protected page
// trap, while on PowerPC/AIX the first page of virtual memory is readable and
// only writes trap (§4.2.1). A trap *candidate* only becomes a guaranteed
// trap when the model says so.
func TestTrapGuaranteeMatchesModel(t *testing.T) {
	h := NewHeap()
	ia32, aix := arch.IA32Win(), arch.PPCAIX()

	inArea := ia32.TrapAreaBytes - ir.WordBytes
	if h.Classify(inArea, ia32.TrapAreaBytes) != AccessTrapCandidate {
		t.Fatalf("%#x should be a trap candidate", inArea)
	}

	read := ir.SlotAccess{Base: 0, Offset: int32(inArea)}
	write := ir.SlotAccess{Base: 0, Offset: int32(inArea), IsWrite: true}
	if !ia32.TrapsForAccess(read) || !ia32.TrapsForAccess(write) {
		t.Error("ia32-win: both reads and writes in the trap area must trap")
	}
	if aix.TrapsForAccess(read) {
		t.Error("ppc-aix: reads in the first page must not trap")
	}
	if !aix.TrapsForAccess(write) {
		t.Error("ppc-aix: writes in the first page must trap")
	}

	// Outside the protected area no model guarantees a trap, even though the
	// address is still garbage memory.
	past := ir.SlotAccess{Base: 0, Offset: int32(ia32.TrapAreaBytes)}
	if ia32.TrapsForAccess(past) || aix.TrapsForAccess(past) {
		t.Error("access past the trap area must never be a guaranteed trap")
	}
}
