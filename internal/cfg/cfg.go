// Package cfg provides control-flow-graph analyses over ir.Func: reverse
// postorder, dominators, and natural-loop detection with pre-header
// creation. The loop machinery backs loop-invariant code motion, which is
// the optimization the paper's phase 1 exists to unlock.
package cfg

import (
	"slices"
	"sync"

	"trapnull/internal/bitset"
	"trapnull/internal/ir"
)

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

// Dominators computes the immediate dominator of every reachable block using
// the Cooper–Harvey–Kennedy iterative algorithm. The entry block's idom is
// itself.
//
// A Dominators and the loops FindLoops derives from it live in one pooled
// workspace, the package's only state: sync.Pool makes it safe for concurrent
// compiles, and each live Dominators owns its workspace exclusively. Release
// hands it back for the next ComputeDominators to reuse; an unreleased one is
// garbage-collected like any value.
type Dominators struct {
	idom []*ir.Block // indexed by Block.ID; nil = unreachable
	num  Numbering
	live bool

	// FindLoops' storage: the loops it found, the Loop values it reuses
	// (pointer-stable across calls) and its predecessor worklist.
	loops []*Loop
	spare []*Loop
	work  []*ir.Block
}

var workspaces = sync.Pool{New: func() any { return new(Dominators) }}

// ComputeDominators builds the dominator tree for f.
func ComputeDominators(f *ir.Func) *Dominators {
	d := workspaces.Get().(*Dominators)
	d.live = true
	num := &d.num
	num.Renumber(f, false)
	// The RPO positions order the intersection walk; every block it visits
	// is reachable, so its position is set.
	order := num.Pos
	n := f.MaxBlockID() + 1
	idom := slices.Grow(d.idom[:0], n)[:n]
	clear(idom)
	d.idom = idom
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
		for _, b := range num.Order {
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
	return d
}

// Release hands the dominator tree and every loop FindLoops derived from it
// back for the next ComputeDominators to reuse. All of them are invalid
// afterwards: the next ComputeDominators may hand the same workspace out
// again. A second Release before any other ComputeDominators is a no-op.
func (d *Dominators) Release() {
	if !d.live {
		return
	}
	d.live = false
	d.loops = d.loops[:0]
	workspaces.Put(d)
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
	// Blocks is the loop body, header included, in f.Blocks order (which is
	// Block.ID order).
	Blocks []*ir.Block
	// Preheader is the unique out-of-loop predecessor of the header,
	// created by EnsurePreheaders when absent.
	Preheader *ir.Block
	// Parent is the innermost enclosing loop, if any.
	Parent *Loop

	body bitset.Set // Blocks, indexed by Block.ID
}

// Contains reports whether b is in the loop body. Blocks created after
// FindLoops (a preheader, a rotated guard) are not.
func (l *Loop) Contains(b *ir.Block) bool { return b.ID < l.body.Len() && l.body.Has(b.ID) }

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
// (by body size ascending), the order LICM wants. The loops live in dom's
// workspace and are valid until dom is released or passed to FindLoops
// again.
func FindLoops(f *ir.Func, dom *Dominators) []*Loop {
	f.RecomputeEdges()
	size := f.MaxBlockID() + 1
	loops := dom.loops[:0]
	num := &dom.num
	num.Renumber(f, false)
	for _, b := range num.Order {
		for _, s := range b.Succs {
			if !dom.Dominates(s, b) {
				continue
			}
			// Back edge b -> s.
			var l *Loop
			for _, o := range loops {
				if o.Header == s {
					l = o
					break
				}
			}
			if l == nil {
				l = dom.loop(len(loops))
				l.Header = s
				l.body.Reset(size)
				l.body.Add(s.ID)
				loops = append(loops, l)
			}
			// Walk predecessors from the tail up to the header.
			work := append(dom.work[:0], b)
			for len(work) > 0 {
				n := work[len(work)-1]
				work = work[:len(work)-1]
				if l.body.Has(n.ID) {
					continue
				}
				l.body.Add(n.ID)
				work = append(work, n.Preds...)
			}
			dom.work = work
		}
	}
	dom.loops = loops
	for _, l := range loops {
		for _, b := range f.Blocks {
			if l.body.Has(b.ID) {
				l.Blocks = append(l.Blocks, b)
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
			if loops[j] != l && loops[j].Contains(l.Header) && len(loops[j].Blocks) > len(l.Blocks) {
				l.Parent = loops[j]
				break
			}
		}
	}
	return loops
}

// loop returns the workspace's i-th Loop, empty, allocating it only the
// first time the workspace holds that many loops.
func (d *Dominators) loop(i int) *Loop {
	if i == len(d.spare) {
		d.spare = append(d.spare, new(Loop))
	}
	l := d.spare[i]
	*l = Loop{Blocks: l.Blocks[:0], body: l.body}
	return l
}

// EnsurePreheaders guarantees every loop has a dedicated preheader block:
// a single edge into the header from outside the loop. Existing qualifying
// predecessors are reused. Returns the number of blocks created.
func EnsurePreheaders(f *ir.Func, loops []*Loop) int {
	created := 0
	for _, l := range loops {
		var outside *ir.Block
		n := 0
		for _, p := range l.Header.Preds {
			if !l.Contains(p) {
				outside = p
				n++
			}
		}
		if n == 1 && len(outside.Succs) == 1 {
			l.Preheader = outside
			continue
		}
		pre := f.NewBlock("pre_" + l.Header.Name)
		pre.Try = l.Header.Try
		pre.Instrs = []*ir.Instr{{Op: ir.OpJump, Dst: ir.NoVar, Targets: []*ir.Block{l.Header}}}
		for _, p := range l.Header.Preds {
			if l.Contains(p) {
				continue
			}
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
