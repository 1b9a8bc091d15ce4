// Package cfg provides control-flow-graph analyses over ir.Func: reverse
// postorder, dominators, and natural-loop detection with pre-header
// creation. The loop machinery backs loop-invariant code motion, which is
// the optimization the paper's phase 1 exists to unlock.
package cfg

import (
	"trapnull/internal/ir"
)

// ReversePostorder returns the blocks reachable from entry in reverse
// postorder. Forward data-flow problems converge fastest in this order and
// backward problems in its reverse.
func ReversePostorder(f *ir.Func) []*ir.Block {
	return rpo(f, false)
}

// ReversePostorderWithHandlers additionally roots the traversal at every
// try-region handler. Handlers have no ordinary CFG predecessors (exception
// dispatch is not an edge), but their code runs; any analysis that feeds a
// transformation — liveness for DCE, the guard checker — must cover them.
func ReversePostorderWithHandlers(f *ir.Func) []*ir.Block {
	return rpo(f, true)
}

func rpo(f *ir.Func, withHandlers bool) []*ir.Block {
	var n Numbering
	n.Renumber(f, withHandlers)
	return n.Order
}

// Numbering is a reverse-postorder numbering of the reachable blocks: Order
// is the RPO sequence and Pos maps Block.ID (densely) to the block's position
// in it, or -1 for unreachable blocks. Worklist data-flow solvers use the
// positions as processing priorities: forward problems on reducible CFGs
// converge in near one pass when blocks are drained in ascending RPO.
type Numbering struct {
	Order []*ir.Block
	Pos   []int32 // indexed by Block.ID; -1 = unreachable
}

// Reaches reports whether b was reached by the numbering traversal.
func (n *Numbering) Reaches(b *ir.Block) bool {
	return b.ID < len(n.Pos) && n.Pos[b.ID] >= 0
}

// Renumber recomputes n for f in place, reusing n's storage: a pooled
// Numbering renumbers without allocating once it has seen a function as
// large.
func (n *Numbering) Renumber(f *ir.Func, withHandlers bool) {
	size := f.MaxBlockID() + 1
	if cap(n.Pos) < size {
		n.Pos = make([]int32, size)
	}
	n.Pos = n.Pos[:size]
	for i := range n.Pos {
		n.Pos[i] = -1
	}
	if cap(n.Order) < len(f.Blocks) {
		n.Order = make([]*ir.Block, 0, len(f.Blocks))
	}
	n.Order = n.Order[:0]
	n.visit(f.Entry)
	if withHandlers {
		for _, r := range f.Regions {
			if n.Pos[r.Handler.ID] < 0 {
				n.visit(r.Handler)
			}
		}
	}
	post := n.Order
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	for i, b := range post {
		n.Pos[b.ID] = int32(i)
	}
}

// visit appends the blocks first reached from b to n.Order in postorder.
// During the traversal a Pos of 0 marks a block as seen.
func (n *Numbering) visit(b *ir.Block) {
	n.Pos[b.ID] = 0
	for _, s := range b.Succs {
		if n.Pos[s.ID] < 0 {
			n.visit(s)
		}
	}
	n.Order = append(n.Order, b)
}

// Reachable returns which blocks are reachable from entry, indexed densely
// by Block.ID.
func Reachable(f *ir.Func) []bool {
	seen := make([]bool, f.MaxBlockID()+1)
	work := []*ir.Block{f.Entry}
	seen[f.Entry.ID] = true
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		for _, s := range b.Succs {
			if !seen[s.ID] {
				seen[s.ID] = true
				work = append(work, s)
			}
		}
	}
	return seen
}

// Dominators computes the immediate dominator of every reachable block using
// the Cooper–Harvey–Kennedy iterative algorithm. The entry block's idom is
// itself.
type Dominators struct {
	idom  []*ir.Block // indexed by Block.ID; nil = unreachable
	order []int       // RPO index by Block.ID
}

// ComputeDominators builds the dominator tree for f.
func ComputeDominators(f *ir.Func) *Dominators {
	rpo := ReversePostorder(f)
	n := f.MaxBlockID() + 1
	order := make([]int, n)
	for i, b := range rpo {
		order[b.ID] = i
	}
	idom := make([]*ir.Block, n)
	idom[f.Entry.ID] = f.Entry

	intersect := func(a, b *ir.Block) *ir.Block {
		for a != b {
			for order[a.ID] > order[b.ID] {
				a = idom[a.ID]
			}
			for order[b.ID] > order[a.ID] {
				b = idom[b.ID]
			}
		}
		return a
	}

	changed := true
	for changed {
		changed = false
		for _, b := range rpo {
			if b == f.Entry {
				continue
			}
			var newIdom *ir.Block
			for _, p := range b.Preds {
				if idom[p.ID] == nil {
					continue // unreachable or not yet processed
				}
				if newIdom == nil {
					newIdom = p
				} else {
					newIdom = intersect(newIdom, p)
				}
			}
			if newIdom != nil && idom[b.ID] != newIdom {
				idom[b.ID] = newIdom
				changed = true
			}
		}
	}
	return &Dominators{idom: idom, order: order}
}

// Idom returns the immediate dominator of b (entry dominates itself), or nil
// for blocks the tree does not cover (unreachable, or created afterwards).
func (d *Dominators) Idom(b *ir.Block) *ir.Block {
	if b.ID >= len(d.idom) {
		return nil
	}
	return d.idom[b.ID]
}

// Dominates reports whether a dominates b (reflexive).
func (d *Dominators) Dominates(a, b *ir.Block) bool {
	for {
		if a == b {
			return true
		}
		next := d.Idom(b)
		if next == nil || next == b {
			return false
		}
		b = next
	}
}

// Loop is a natural loop: a back edge tail->Header plus the body blocks.
type Loop struct {
	Header *ir.Block
	// Blocks includes the header.
	Blocks map[*ir.Block]bool
	// Preheader is the unique out-of-loop predecessor of the header,
	// created by EnsurePreheaders when absent.
	Preheader *ir.Block
	// Parent is the innermost enclosing loop, if any.
	Parent *Loop
}

// Contains reports whether b is in the loop body.
func (l *Loop) Contains(b *ir.Block) bool { return l.Blocks[b] }

// Depth returns the nesting depth (outermost = 1).
func (l *Loop) Depth() int {
	d := 0
	for ; l != nil; l = l.Parent {
		d++
	}
	return d
}

// FindLoops detects natural loops from back edges (tail dominated by head).
// Loops sharing a header are merged. Results are sorted innermost-first
// (by body size ascending), the order LICM wants.
func FindLoops(f *ir.Func, dom *Dominators) []*Loop {
	f.RecomputeEdges()
	byHeader := make(map[*ir.Block]*Loop)
	var loops []*Loop
	for _, b := range ReversePostorder(f) {
		for _, s := range b.Succs {
			if !dom.Dominates(s, b) {
				continue
			}
			// Back edge b -> s.
			l := byHeader[s]
			if l == nil {
				l = &Loop{Header: s, Blocks: map[*ir.Block]bool{s: true}}
				byHeader[s] = l
				loops = append(loops, l)
			}
			// Walk predecessors from the tail up to the header.
			work := []*ir.Block{b}
			for len(work) > 0 {
				n := work[len(work)-1]
				work = work[:len(work)-1]
				if l.Blocks[n] {
					continue
				}
				l.Blocks[n] = true
				for _, p := range n.Preds {
					work = append(work, p)
				}
			}
		}
	}
	// Sort innermost-first.
	for i := 0; i < len(loops); i++ {
		for j := i + 1; j < len(loops); j++ {
			if len(loops[j].Blocks) < len(loops[i].Blocks) {
				loops[i], loops[j] = loops[j], loops[i]
			}
		}
	}
	// Link parents: the smallest other loop strictly containing the header.
	for i, l := range loops {
		for j := i + 1; j < len(loops); j++ {
			if loops[j] != l && loops[j].Blocks[l.Header] && len(loops[j].Blocks) > len(l.Blocks) {
				l.Parent = loops[j]
				break
			}
		}
	}
	return loops
}

// EnsurePreheaders guarantees every loop has a dedicated preheader block:
// a single edge into the header from outside the loop. Existing qualifying
// predecessors are reused. Returns the number of blocks created.
func EnsurePreheaders(f *ir.Func, loops []*Loop) int {
	created := 0
	for _, l := range loops {
		var outside []*ir.Block
		for _, p := range l.Header.Preds {
			if !l.Blocks[p] {
				outside = append(outside, p)
			}
		}
		if len(outside) == 1 && len(outside[0].Succs) == 1 {
			l.Preheader = outside[0]
			continue
		}
		pre := f.NewBlock("pre_" + l.Header.Name)
		pre.Try = l.Header.Try
		pre.Instrs = []*ir.Instr{{Op: ir.OpJump, Dst: ir.NoVar, Targets: []*ir.Block{l.Header}}}
		for _, p := range outside {
			t := p.Terminator()
			for i, tgt := range t.Targets {
				if tgt == l.Header {
					t.Targets[i] = pre
				}
			}
		}
		l.Preheader = pre
		created++
		f.RecomputeEdges()
	}
	return created
}
