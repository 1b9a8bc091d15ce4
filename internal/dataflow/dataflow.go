// Package dataflow implements a generic iterative bit-vector data-flow
// solver. All four analyses of the paper (§4.1.1 backward insertion, §4.1.2
// forward non-null, §4.2.1 forward motion, §4.2.2 backward substitutable)
// instantiate it with their own Scan/Edge functions over variable-indexed
// sets.
//
// The solver is a priority worklist: blocks are drained in reverse-postorder
// position (postorder position for backward problems), and a block is
// re-enqueued only when the output of a neighbor it depends on actually
// changes. On reducible CFGs forward problems converge in near one pass, and
// the per-block state lives in dense slices indexed by Block.ID with all
// meets performed in place. That state — the In/Out and gen/kill slabs, the
// dense tables, the block numbering, the worklist and the scratch sets —
// and the Result itself — comes from a pooled workspace that Result.Release
// hands back, so the solver allocates nothing per iteration and nothing at
// all per solve once a workspace has served a function as large. Compile
// time is itself a measured quantity here (Tables 3–5).
package dataflow

import (
	"sync"

	"trapnull/internal/bitset"
	"trapnull/internal/cfg"
	"trapnull/internal/ir"
)

// Direction selects forward or backward propagation.
type Direction uint8

const (
	Forward Direction = iota
	Backward
)

// Meet selects the confluence operator.
type Meet uint8

const (
	// Intersect is the must/all-paths meet (anticipability, availability).
	Intersect Meet = iota
	// Union is the may/some-path meet.
	Union
)

// Problem describes one bit-vector data-flow problem. Scan summarizes a
// whole block; EdgeSubtract removes elements crossing a specific edge (the
// paper's Edge_try) and EdgeAdd injects elements on an edge (the paper's
// Edge sets: ifnonnull outcomes, the `this` parameter). Either edge function
// may be nil. The solver does not retain the sets returned by the edge
// functions, so callers may reuse a scratch set across calls.
type Problem struct {
	Dir      Direction
	Meet     Meet
	Size     int
	Boundary *bitset.Set // value at the CFG boundary (entry or all exits)
	// Scan adds block b's generated elements to gen and its killed elements
	// to kill: every analysis here derives both from one walk over the
	// block. Solve calls it once per reachable block with two empty sets of
	// Size that it owns; Scan must not retain them.
	Scan func(b *ir.Block, gen, kill *bitset.Set)

	EdgeSubtract func(from, to *ir.Block) *bitset.Set
	EdgeAdd      func(from, to *ir.Block) *bitset.Set
}

// Result holds the fixpoint In/Out sets, indexed densely by Block.ID. It
// lives in the workspace of the Solve that returned it.
type Result struct {
	in  []*bitset.Set
	out []*bitset.Set
	ws  *workspace
}

// In returns the fixpoint value at the entry of b.
func (r *Result) In(b *ir.Block) *bitset.Set { return r.in[b.ID] }

// Out returns the fixpoint value at the exit of b.
func (r *Result) Out(b *ir.Block) *bitset.Set { return r.out[b.ID] }

// Release hands the result's memory back for the next Solve to reuse. The
// result and every set it returned are invalid afterwards: the next Solve may
// hand the same Result out again. Releasing is optional — an unreleased
// result is garbage-collected like any value, which is how callers whose sets
// outlive them use it — and a second Release before any other Solve is a
// no-op.
func (r *Result) Release() {
	if r.ws == nil {
		return
	}
	ws := r.ws
	r.in, r.out, r.ws = nil, nil, nil
	workspaces.Put(ws)
}

// workspace is all the memory one Solve uses. Workspaces live in a
// package-level pool, the package's only state; sync.Pool makes it safe for
// concurrent solves, and each live Result owns its workspace exclusively.
type workspace struct {
	res            Result
	num            cfg.Numbering
	state, summary bitset.Slab
	in, out        []*bitset.Set
	gen, kill      []*bitset.Set
	byPrio         []*ir.Block
	prio           []int32
	work, edge     bitset.Set
	boundary       bitset.Set
}

var workspaces = sync.Pool{New: func() any { return new(workspace) }}

// dense returns s resized to n nil entries, reusing its storage.
func dense(s []*bitset.Set, n int) []*bitset.Set {
	if cap(s) < n {
		return make([]*bitset.Set, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// Solve runs the worklist algorithm to a fixpoint over the reachable blocks
// of f. Unreachable blocks receive empty sets. The returned sets stay valid
// until the caller releases the Result.
func Solve(f *ir.Func, p *Problem) *Result {
	ws := workspaces.Get().(*workspace)
	// Handlers run even though no CFG edge reaches them; they participate
	// in every analysis with a conservative (empty) entry value.
	num := &ws.num
	num.Renumber(f, true)

	// byPrio orders blocks by processing priority: ascending RPO position
	// for forward problems, descending (≈ postorder) for backward ones.
	byPrio := num.Order
	prio := num.Pos
	if p.Dir == Backward {
		n := len(num.Order)
		if cap(ws.byPrio) < n {
			ws.byPrio = make([]*ir.Block, n)
		}
		byPrio = ws.byPrio[:n]
		prio = append(ws.prio[:0], num.Pos...)
		ws.prio = prio
		for i, b := range num.Order {
			byPrio[n-1-i] = b
			prio[b.ID] = int32(n - 1 - i)
		}
	}

	ids := f.MaxBlockID() + 1
	ws.in, ws.out = dense(ws.in, ids), dense(ws.out, ids)
	res := &ws.res
	*res = Result{in: ws.in, out: ws.out, ws: ws}
	// Intersection problems start optimistic (full sets) so that loops reach
	// the greatest fixpoint; union problems start empty for the least one.
	// Unreachable blocks keep empty sets either way.
	state := ws.state.Carve(2*len(f.Blocks), p.Size)
	for i, b := range f.Blocks {
		res.in[b.ID] = state[2*i]
		res.out[b.ID] = state[2*i+1]
		if p.Meet == Intersect && num.Reaches(b) {
			res.in[b.ID].Fill()
			res.out[b.ID].Fill()
		}
	}

	gen, kill := dense(ws.gen, ids), dense(ws.kill, ids)
	ws.gen, ws.kill = gen, kill
	sums := ws.summary.Carve(2*len(num.Order), p.Size)
	for i, b := range num.Order {
		gen[b.ID], kill[b.ID] = sums[2*i], sums[2*i+1]
		p.Scan(b, gen[b.ID], kill[b.ID])
	}

	boundary := p.Boundary
	if boundary == nil {
		ws.boundary.Reset(p.Size)
		boundary = &ws.boundary
	}
	edgeScratch := &ws.edge
	if p.EdgeAdd != nil || p.EdgeSubtract != nil {
		edgeScratch.Reset(p.Size)
	}

	// meetFrom folds the (edge-adjusted) value of one reachable neighbor
	// into acc. The first contribution is copied, later ones meet.
	meetFrom := func(acc, v *bitset.Set, from, to *ir.Block, first bool) {
		if p.EdgeAdd != nil || p.EdgeSubtract != nil {
			edgeScratch.CopyFrom(v)
			if p.EdgeAdd != nil {
				if add := p.EdgeAdd(from, to); add != nil {
					edgeScratch.Union(add)
				}
			}
			if p.EdgeSubtract != nil {
				if sub := p.EdgeSubtract(from, to); sub != nil {
					edgeScratch.Subtract(sub)
				}
			}
			v = edgeScratch
		}
		switch {
		case first:
			acc.CopyFrom(v)
		case p.Meet == Intersect:
			acc.Intersect(v)
		default:
			acc.Union(v)
		}
	}

	// The worklist holds priority positions; popping the minimum processes
	// blocks in convergence order. Seed it with every reachable block so
	// each is visited at least once.
	work := &ws.work
	work.Reset(len(byPrio))
	work.Fill()

	for {
		i := work.NextSet(0)
		if i < 0 {
			break
		}
		work.Remove(i)
		b := byPrio[i]

		if p.Dir == Forward {
			// In(b) only depends on predecessor Outs, so the meet can
			// accumulate directly into the stored set.
			in := res.in[b.ID]
			first := true
			for _, pr := range b.Preds {
				if !num.Reaches(pr) {
					continue
				}
				meetFrom(in, res.out[pr.ID], pr, b, first)
				first = false
			}
			if b == f.Entry {
				// The entry's preds (if any, e.g. a loop back to entry)
				// still meet with the boundary.
				switch {
				case first:
					in.CopyFrom(boundary)
				case p.Meet == Intersect:
					in.Intersect(boundary)
				default:
					in.Union(boundary)
				}
			} else if first {
				// No reachable preds: handler entries assume nothing (the
				// state at an exception dispatch point is unknown).
				in.Clear()
			}
			if res.out[b.ID].TransferInto(in, kill[b.ID], gen[b.ID]) {
				for _, s := range b.Succs {
					if num.Reaches(s) {
						work.Add(int(prio[s.ID]))
					}
				}
			}
		} else {
			out := res.out[b.ID]
			first := true
			for _, s := range b.Succs {
				if !num.Reaches(s) {
					continue
				}
				meetFrom(out, res.in[s.ID], b, s, first)
				first = false
			}
			if first {
				// Exits (and succ-less blocks generally) see the boundary.
				out.CopyFrom(boundary)
			}
			if res.in[b.ID].TransferInto(out, kill[b.ID], gen[b.ID]) {
				for _, pr := range b.Preds {
					if num.Reaches(pr) {
						work.Add(int(prio[pr.ID]))
					}
				}
			}
		}
	}
	return res
}
