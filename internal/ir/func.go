package ir

import "fmt"

// Local is a local variable slot. Parameters occupy the first slots.
type Local struct {
	Name string
	Kind Kind
}

// TryRegion describes a try/catch scope. Blocks carry the region index; the
// handler receives the thrown exception object in ExcVar. NoTry marks blocks
// outside any region. Motion of null checks across a region boundary is
// forbidden (the Edge_try sets of the paper).
type TryRegion struct {
	ID      int
	Handler *Block
	// ExcVar receives the caught exception reference in the handler.
	ExcVar VarID
}

// NoTry is the region index of blocks outside any try region.
const NoTry = -1

// Block is a basic block. Instrs always ends with a terminator once the
// function is sealed. Preds/Succs are derived and refreshed by
// RecomputeEdges after any CFG surgery.
type Block struct {
	ID     int
	Name   string
	Instrs []*Instr
	Try    int // try region index or NoTry

	Preds []*Block
	Succs []*Block
}

// Terminator returns the final instruction.
func (b *Block) Terminator() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	t := b.Instrs[len(b.Instrs)-1]
	if !t.IsTerminator() {
		return nil
	}
	return t
}

// InsertBefore inserts instruction in before index i.
func (b *Block) InsertBefore(i int, in *Instr) {
	b.Instrs = append(b.Instrs, nil)
	copy(b.Instrs[i+1:], b.Instrs[i:])
	b.Instrs[i] = in
}

// InsertBeforeTerminator inserts in just before the block terminator.
func (b *Block) InsertBeforeTerminator(in *Instr) {
	if t := b.Terminator(); t == nil {
		b.Instrs = append(b.Instrs, in)
	} else {
		b.InsertBefore(len(b.Instrs)-1, in)
	}
}

func (b *Block) String() string {
	if b.Name != "" {
		return fmt.Sprintf("B%d(%s)", b.ID, b.Name)
	}
	return fmt.Sprintf("B%d", b.ID)
}

// Func is a single compiled function.
type Func struct {
	Name      string
	Method    *Method // back-pointer if this is a method body
	NumParams int
	// IsInstance marks methods whose first parameter is the receiver; the
	// receiver is known non-null on entry (Edge rule in §4.1.2).
	IsInstance bool
	Locals     []Local
	Blocks     []*Block
	Entry      *Block
	Regions    []*TryRegion
	ResultKind Kind
	HasResult  bool

	// Track, when non-nil, observes the fate of every null check the
	// optimization passes remove from this function. It is attached only for
	// the duration of a compilation with remarks on (jit.CompileOptions.Observer)
	// and is deliberately not copied by Clone: snapshots replayed by the
	// triage machinery must not double-report events.
	Track CheckTracker

	nextBlockID int
}

// NewLocal appends a local variable and returns its ID.
func (f *Func) NewLocal(name string, k Kind) VarID {
	f.Locals = append(f.Locals, Local{Name: name, Kind: k})
	return VarID(len(f.Locals) - 1)
}

// NumLocals returns the local variable count; analyses size their bit
// vectors with it.
func (f *Func) NumLocals() int { return len(f.Locals) }

// NewBlock appends an empty block.
func (f *Func) NewBlock(name string) *Block {
	b := &Block{ID: f.nextBlockID, Name: name, Try: NoTry}
	f.nextBlockID++
	f.Blocks = append(f.Blocks, b)
	if f.Entry == nil {
		f.Entry = b
	}
	return b
}

// MaxBlockID returns the largest block ID in the function, or -1 when it has
// no blocks. Block IDs are assigned sequentially and never reused, so dense
// per-block tables are indexed by ID and sized MaxBlockID()+1.
func (f *Func) MaxBlockID() int {
	max := -1
	for _, b := range f.Blocks {
		if b.ID > max {
			max = b.ID
		}
	}
	return max
}

// NewRegion declares a try region with the given handler block.
func (f *Func) NewRegion(handler *Block, excVar VarID) *TryRegion {
	r := &TryRegion{ID: len(f.Regions), Handler: handler, ExcVar: excVar}
	f.Regions = append(f.Regions, r)
	return r
}

// RecomputeEdges rebuilds Preds/Succs from the block terminators. Handler
// edges are intentionally not part of the normal CFG; the analyses treat try
// boundaries via the Try indices instead, as the paper does.
func (f *Func) RecomputeEdges() {
	for _, b := range f.Blocks {
		b.Preds = b.Preds[:0]
		b.Succs = b.Succs[:0]
	}
	for _, b := range f.Blocks {
		t := b.Terminator()
		if t == nil {
			continue
		}
		for _, s := range t.Targets {
			b.Succs = append(b.Succs, s)
			s.Preds = append(s.Preds, b)
		}
	}
}

// SplitCriticalEdges inserts an empty block on every edge whose source has
// multiple successors and whose destination has multiple predecessors. The
// phase 2 placement (and optimal PRE placement generally) needs critical
// edges gone so that "insert at block exit / entry" can express every edge
// placement. New blocks inherit the try region of the edge destination when
// both endpoints share a region, else the source's region.
func (f *Func) SplitCriticalEdges() int {
	f.RecomputeEdges()
	split := 0
	// Collect first: we mutate f.Blocks while iterating otherwise.
	type edge struct {
		from *Block
		idx  int // index into from.Terminator().Targets
	}
	var critical []edge
	for _, b := range f.Blocks {
		t := b.Terminator()
		if t == nil || len(t.Targets) < 2 {
			continue
		}
		for i, s := range t.Targets {
			if len(s.Preds) >= 2 {
				critical = append(critical, edge{b, i})
			}
		}
	}
	for _, e := range critical {
		t := e.from.Terminator()
		dst := t.Targets[e.idx]
		mid := f.NewBlock(fmt.Sprintf("crit%d_%d", e.from.ID, dst.ID))
		if e.from.Try == dst.Try {
			mid.Try = dst.Try
		} else {
			mid.Try = e.from.Try
		}
		mid.Instrs = []*Instr{{Op: OpJump, Dst: NoVar, Targets: []*Block{dst}}}
		t.Targets[e.idx] = mid
		split++
	}
	if split > 0 {
		f.RecomputeEdges()
	}
	return split
}

// RemoveInstr deletes the instruction at index i of block b.
func (b *Block) RemoveInstr(i int) {
	copy(b.Instrs[i:], b.Instrs[i+1:])
	b.Instrs = b.Instrs[:len(b.Instrs)-1]
}

// Clone deep-copies the function. Instructions and blocks are fresh; Field,
// Class and Method pointers are shared (they are program-level metadata).
func (f *Func) Clone() *Func {
	nf := &Func{
		Name:        f.Name,
		Method:      f.Method,
		NumParams:   f.NumParams,
		IsInstance:  f.IsInstance,
		Locals:      append([]Local(nil), f.Locals...),
		ResultKind:  f.ResultKind,
		HasResult:   f.HasResult,
		nextBlockID: f.nextBlockID,
	}
	bmap := make(map[*Block]*Block, len(f.Blocks))
	for _, b := range f.Blocks {
		nb := &Block{ID: b.ID, Name: b.Name, Try: b.Try}
		bmap[b] = nb
		nf.Blocks = append(nf.Blocks, nb)
	}
	nf.Entry = bmap[f.Entry]
	for _, b := range f.Blocks {
		nb := bmap[b]
		for _, in := range b.Instrs {
			ci := in.Clone()
			for i, tgt := range ci.Targets {
				ci.Targets[i] = bmap[tgt]
			}
			nb.Instrs = append(nb.Instrs, ci)
		}
	}
	for _, r := range f.Regions {
		nf.Regions = append(nf.Regions, &TryRegion{ID: r.ID, Handler: bmap[r.Handler], ExcVar: r.ExcVar})
	}
	nf.RecomputeEdges()
	return nf
}

// CountOp returns how many instructions with opcode op the function has;
// tests and the statistics reporting use it.
func (f *Func) CountOp(op Op) int {
	n := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == op {
				n++
			}
		}
	}
	return n
}

// NullChecks returns every OpNullCheck instruction in block order. The slice
// index is the check's canonical ordinal: the tier controller numbers its
// speculation mask with it and the jit speculation pass applies the mask by
// it, so the two sides can never drift as long as both walk the same
// deterministic compiled body.
func (f *Func) NullChecks() []*Instr {
	var checks []*Instr
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == OpNullCheck {
				checks = append(checks, in)
			}
		}
	}
	return checks
}

// NumInstrs returns the total instruction count.
func (f *Func) NumInstrs() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	return n
}
