package opt

import "trapnull/internal/ir"

// SimplifyCFG removes the control-flow scaffolding earlier passes leave
// behind: branches are threaded past blocks that contain only a jump, and
// straight-line block chains are merged. Without this, the critical-edge
// splits that phase 1 and phase 2 introduce would cost a dynamic jump per
// loop iteration and mask the very savings being measured. Returns the
// number of edits.
func SimplifyCFG(f *ir.Func) int {
	ws := getWorkspace()
	defer ws.release()
	edits := 0
	handlers := make(map[*ir.Block]bool, len(f.Regions))
	for _, r := range f.Regions {
		handlers[r.Handler] = true
	}

	// finalTarget follows chains of jump-only blocks.
	finalTarget := func(b *ir.Block) *ir.Block {
		seen := map[*ir.Block]bool{}
		for len(b.Instrs) == 1 && b.Instrs[0].Op == ir.OpJump && !seen[b] {
			seen[b] = true
			next := b.Instrs[0].Targets[0]
			if next == b {
				break
			}
			b = next
		}
		return b
	}

	// Thread branches past empty jump blocks.
	for _, b := range f.Blocks {
		t := b.Terminator()
		if t == nil {
			continue
		}
		for i, tgt := range t.Targets {
			if ft := finalTarget(tgt); ft != tgt {
				t.Targets[i] = ft
				edits++
			}
		}
	}
	// Region handlers may themselves be empty jump blocks after
	// optimization; retarget the region too.
	for _, r := range f.Regions {
		if ft := finalTarget(r.Handler); ft != r.Handler {
			r.Handler = ft
			edits++
		}
	}
	f.RecomputeEdges()

	// Drop blocks the threading just bypassed before merging: a stale
	// unreachable predecessor would otherwise block a legal merge.
	edits += removeUnreachable(f, ws)

	// Merge straight-line chains: B ends in Jump(S), S has only B as
	// predecessor, same try region, S is not a handler.
	for changed := true; changed; {
		changed = false
		for _, b := range f.Blocks {
			t := b.Terminator()
			if t == nil || t.Op != ir.OpJump {
				continue
			}
			s := t.Targets[0]
			if s == b || len(s.Preds) != 1 || s.Preds[0] != b || s.Try != b.Try || handlers[s] {
				continue
			}
			b.Instrs = append(b.Instrs[:len(b.Instrs)-1], s.Instrs...)
			// Delete s from the function.
			for i, blk := range f.Blocks {
				if blk == s {
					f.Blocks = append(f.Blocks[:i], f.Blocks[i+1:]...)
					break
				}
			}
			f.RecomputeEdges()
			edits++
			changed = true
			break
		}
	}

	// Drop unreachable blocks (threaded-past jump blocks).
	edits += removeUnreachable(f, ws)
	return edits
}
