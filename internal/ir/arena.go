package ir

// Arena is a chunked slab allocator for the three allocation-heavy IR
// shapes: Instr structs, Block structs, and operand slices. The optimization
// passes churn through short-lived replacement instructions (split checks,
// hoisted copies, rewritten guards); allocating them from per-function slabs
// turns thousands of individual `new(Instr)` garbage objects into a handful
// of chunk allocations that die together with the function.
//
// Ownership and lifetime invariants (see DESIGN.md §10):
//
//   - An Arena is owned by exactly one Func (lazily, via Func.Alloc) or is
//     shared by the Funcs of one Program generation (randprog's GenerateIn).
//     Everything allocated from it must not outlive the owner.
//   - Arenas are NOT safe for concurrent use. Compilation keeps this
//     trivially true: a program compiles on one goroutine, each method's
//     passes only ever allocate from that method's own arena, and concurrent
//     sweep cells compile distinct programs.
//   - Reset recycles the chunks for a new generation. It zeroes the recycled
//     memory so stale *Block/*Field/*Class pointers neither leak objects nor
//     masquerade as live IR. Callers must guarantee every Func built from the
//     arena is unreachable before Reset — the randprog fuzz loops satisfy
//     this by discarding the program (and any Machine caching its Funcs by
//     pointer) before generating the next seed.
//   - Func.Clone never copies into an arena: snapshots taken by triage must
//     survive arbitrary later Resets of the original's allocator.
//
// All methods are nil-receiver safe and fall back to ordinary heap
// allocation, so code paths that never attach an arena behave exactly as
// before.
type Arena struct {
	instrs [][]Instr
	blocks [][]Block
	opers  [][]Operand
	// used counts within the LAST chunk of each slab list.
	instrUsed int
	blockUsed int
	operUsed  int
}

// Chunk sizing: geometric growth keeps tiny functions cheap (a method with
// four instructions costs one 32-entry chunk, not a 512-entry slab) while
// large randprog CFGs settle into big chunks quickly.
const (
	arenaFirstChunk = 32
	arenaMaxChunk   = 1024
)

// arenaNextLen returns the length of the next chunk given the previous one.
func arenaNextLen(prev int) int {
	if prev == 0 {
		return arenaFirstChunk
	}
	if n := prev * 2; n < arenaMaxChunk {
		return n
	}
	return arenaMaxChunk
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// NewInstr copies tmpl into the slab and returns a pointer to the copy.
// Instructions are identified by pointer throughout the compiler (tracker
// keys, prepared-operand caches), and slab placement preserves that: the
// returned pointer is stable until Reset.
func (a *Arena) NewInstr(tmpl Instr) *Instr {
	if a == nil {
		in := tmpl
		return &in
	}
	if n := len(a.instrs); n == 0 || a.instrUsed == len(a.instrs[n-1]) {
		prev := 0
		if n > 0 {
			prev = len(a.instrs[n-1])
		}
		a.instrs = append(a.instrs, make([]Instr, arenaNextLen(prev)))
		a.instrUsed = 0
	}
	chunk := a.instrs[len(a.instrs)-1]
	in := &chunk[a.instrUsed]
	a.instrUsed++
	*in = tmpl
	return in
}

// NewBlock allocates a Block from the slab. Only the struct itself is
// arena-backed; its Instrs/Preds/Succs slices grow on the ordinary heap.
func (a *Arena) NewBlock(tmpl Block) *Block {
	if a == nil {
		b := tmpl
		return &b
	}
	if n := len(a.blocks); n == 0 || a.blockUsed == len(a.blocks[n-1]) {
		prev := 0
		if n > 0 {
			prev = len(a.blocks[n-1])
		}
		a.blocks = append(a.blocks, make([]Block, arenaNextLen(prev)))
		a.blockUsed = 0
	}
	chunk := a.blocks[len(a.blocks)-1]
	b := &chunk[a.blockUsed]
	a.blockUsed++
	*b = tmpl
	return b
}

// Operands copies the given operands into the slab and returns the copy.
// The result is full-capacity sliced, so an `append` by a later pass
// reallocates onto the heap instead of clobbering a neighbouring
// instruction's operands.
func (a *Arena) Operands(ops ...Operand) []Operand {
	if a == nil {
		return ops
	}
	return a.CopyOperands(ops)
}

// CopyOperands is Operands for an existing slice (used by CloneInto).
func (a *Arena) CopyOperands(ops []Operand) []Operand {
	if len(ops) == 0 {
		return nil
	}
	if a == nil {
		return append([]Operand(nil), ops...)
	}
	n := len(ops)
	if last := len(a.opers) - 1; last < 0 || a.operUsed+n > len(a.opers[last]) {
		prev := 0
		if last >= 0 {
			prev = len(a.opers[last])
		}
		size := arenaNextLen(prev) * 2 // operands are small; double the instr granularity
		if size < n {
			size = n
		}
		a.opers = append(a.opers, make([]Operand, size))
		a.operUsed = 0
	}
	chunk := a.opers[len(a.opers)-1]
	dst := chunk[a.operUsed : a.operUsed+n : a.operUsed+n]
	a.operUsed += n
	copy(dst, ops)
	return dst
}

// Reset recycles the arena for a new generation. Only the largest chunk of
// each slab is kept (bounding steady-state memory at roughly the high-water
// chunk) and its used prefix is zeroed: Instr and Block hold pointers
// (Targets, Field, Class, Callee, instruction slices), and leaving stale
// values in place would both pin dead object graphs and risk a
// use-after-reset reading plausible-looking IR. Callers own the proof that
// nothing allocated from the arena is still reachable.
func (a *Arena) Reset() {
	if a == nil {
		return
	}
	// The last chunk of each slab is always the largest (growth is
	// monotone), so keep it, drop the rest, and zero what was used of it.
	if n := len(a.instrs); n > 0 {
		last := a.instrs[n-1]
		used := a.instrUsed
		if n > 1 {
			// Earlier chunks were fully used but are dropped whole; the kept
			// chunk was filled up to instrUsed. A fresh header slice lets the
			// garbage collector reclaim the dropped chunks.
			a.instrs = [][]Instr{last}
		}
		for j := 0; j < used; j++ {
			last[j] = Instr{}
		}
	}
	if n := len(a.blocks); n > 0 {
		last := a.blocks[n-1]
		used := a.blockUsed
		if n > 1 {
			a.blocks = [][]Block{last}
		}
		for j := 0; j < used; j++ {
			last[j] = Block{}
		}
	}
	if n := len(a.opers); n > 0 {
		last := a.opers[n-1]
		used := a.operUsed
		if n > 1 {
			a.opers = [][]Operand{last}
		}
		for j := 0; j < used; j++ {
			last[j] = Operand{}
		}
	}
	a.instrUsed = 0
	a.blockUsed = 0
	a.operUsed = 0
}

// InstrsAllocated reports how many instructions the arena has handed out in
// the current generation (tests and stats).
func (a *Arena) InstrsAllocated() int {
	if a == nil {
		return 0
	}
	n := 0
	for i, chunk := range a.instrs {
		if i == len(a.instrs)-1 {
			n += a.instrUsed
		} else {
			n += len(chunk)
		}
	}
	return n
}
