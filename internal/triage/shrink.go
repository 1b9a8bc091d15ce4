package triage

import (
	"fmt"

	"trapnull/internal/ir"
	"trapnull/internal/jit"
)

// Shrinking never mutates a function that crossed program boundaries:
// instruction operands hold pointers into program-level metadata (fields,
// classes, callees), so a clone from one Gen() call cannot be installed into
// another. Instead an accepted shrink is a sequence of positional edits, and
// every candidate evaluation replays the whole sequence against a fresh
// program — determinism of Gen makes the positions stable.

const (
	editDelInstr = iota // delete one non-terminator instruction
	editDelBody         // delete every non-terminator instruction of a block
	editIfToJump        // replace a two-way branch with a jump to one target
)

type edit struct {
	kind   int
	bi, ii int // block index; instruction index (editDelInstr only)
	target int // which branch target survives (editIfToJump only)
}

// shrink greedily minimizes the entry function while the case still
// diverges on the triaging input, then fills in the report's reproducer
// fields. Each candidate evaluation compiles its edited program afresh.
func shrink(c Case, div *Divergence, rep *Report) error {
	var edits []edit
	cur, err := builtEntry(c, edits)
	if err != nil {
		return err
	}
	if !editedCaseDiverges(c, edits, div.Input) {
		return fmt.Errorf("case does not diverge on replay (input %d)", div.Input)
	}

	for improved := true; improved; {
		improved = false
		for _, e := range enumerateEdits(cur) {
			trial := append(append([]edit(nil), edits...), e)
			nf, err := builtEntry(c, trial)
			if err != nil || nf.NumInstrs() >= cur.NumInstrs() {
				continue // malformed or not a strict shrink
			}
			if ir.Validate(nf) != nil {
				continue
			}
			if editedCaseDiverges(c, trial, div.Input) {
				edits, cur = trial, nf
				improved = true
				break
			}
		}
	}

	rep.MinimalEntry = cur
	rep.MinimalInstrs = cur.NumInstrs()

	prog, entry, err := editedProgram(c, edits)
	if err != nil {
		return err
	}
	dropUncalledMethods(prog, entry)
	rep.Reproducer = reproducerSource(prog)
	return nil
}

// enumerateEdits lists the next-step candidate edits against the current
// entry function, biggest expected shrink first: whole block bodies, then
// branch removals (which disconnect whole subgraphs), then single
// instructions.
func enumerateEdits(f *ir.Func) []edit {
	var out []edit
	for bi, b := range f.Blocks {
		n := len(b.Instrs)
		if t := b.Terminator(); t != nil {
			n--
		}
		if n > 1 {
			out = append(out, edit{kind: editDelBody, bi: bi})
		}
	}
	for bi, b := range f.Blocks {
		if t := b.Terminator(); t != nil && t.Op == ir.OpIf {
			out = append(out, edit{kind: editIfToJump, bi: bi, target: 0})
			out = append(out, edit{kind: editIfToJump, bi: bi, target: 1})
		}
	}
	for bi, b := range f.Blocks {
		for ii, in := range b.Instrs {
			if !in.IsTerminator() {
				out = append(out, edit{kind: editDelInstr, bi: bi, ii: ii})
			}
		}
	}
	return out
}

// applyEdits replays the edit sequence on f. Each edit is followed by an
// unreachable-block prune so positional indices always refer to the pruned
// state the enumeration saw.
func applyEdits(f *ir.Func, edits []edit) error {
	for _, e := range edits {
		if e.bi >= len(f.Blocks) {
			return fmt.Errorf("edit block index %d out of range", e.bi)
		}
		b := f.Blocks[e.bi]
		switch e.kind {
		case editDelInstr:
			if e.ii >= len(b.Instrs) || b.Instrs[e.ii].IsTerminator() {
				return fmt.Errorf("edit instr index %d invalid in block %s", e.ii, b.Name)
			}
			b.Instrs = append(b.Instrs[:e.ii:e.ii], b.Instrs[e.ii+1:]...)
		case editDelBody:
			kept := b.Instrs[:0]
			for _, in := range b.Instrs {
				if in.IsTerminator() {
					kept = append(kept, in)
				}
			}
			b.Instrs = kept
		case editIfToJump:
			t := b.Terminator()
			if t == nil || t.Op != ir.OpIf {
				return fmt.Errorf("block %s has no two-way branch", b.Name)
			}
			b.Instrs[len(b.Instrs)-1] = &ir.Instr{
				Op:      ir.OpJump,
				Dst:     ir.NoVar,
				Targets: []*ir.Block{t.Targets[e.target]},
			}
		}
		pruneUnreachable(f)
	}
	return nil
}

// pruneUnreachable drops blocks no path reaches, keeping handler blocks of
// try regions that still cover a live block, and renumbers the surviving
// regions so region IDs stay equal to their indices (the invariant the IR
// verifier enforces).
func pruneUnreachable(f *ir.Func) {
	f.RecomputeEdges()
	live := map[*ir.Block]bool{}
	var visit func(b *ir.Block)
	visit = func(b *ir.Block) {
		if b == nil || live[b] {
			return
		}
		live[b] = true
		for _, s := range b.Succs {
			visit(s)
		}
	}
	visit(f.Entry)
	// A handler is a root whenever some live block is covered by its region;
	// handlers can cover each other, so iterate to a fixpoint.
	for changed := true; changed; {
		changed = false
		for _, b := range f.Blocks {
			if !live[b] || b.Try == ir.NoTry || b.Try >= len(f.Regions) {
				continue
			}
			h := f.Regions[b.Try].Handler
			if !live[h] {
				visit(h)
				changed = true
			}
		}
	}

	var blocks []*ir.Block
	for _, b := range f.Blocks {
		if live[b] {
			blocks = append(blocks, b)
		}
	}
	f.Blocks = blocks

	// Keep only regions still covering a live block, renumbering in place.
	used := map[int]bool{}
	for _, b := range f.Blocks {
		if b.Try != ir.NoTry {
			used[b.Try] = true
		}
	}
	remap := map[int]int{}
	var regions []*ir.TryRegion
	for i, r := range f.Regions {
		if used[i] {
			remap[i] = len(regions)
			r.ID = len(regions)
			regions = append(regions, r)
		}
	}
	f.Regions = regions
	for _, b := range f.Blocks {
		if b.Try != ir.NoTry {
			b.Try = remap[b.Try]
		}
	}
	f.RecomputeEdges()
}

// editedProgram builds a fresh program with the edit sequence applied to its
// entry function.
func editedProgram(c Case, edits []edit) (*ir.Program, *ir.Func, error) {
	prog, entry := c.Gen()
	if err := applyEdits(entry, edits); err != nil {
		return nil, nil, err
	}
	return prog, entry, nil
}

// builtEntry returns the edited (uncompiled) entry function.
func builtEntry(c Case, edits []edit) (*ir.Func, error) {
	_, entry, err := editedProgram(c, edits)
	return entry, err
}

// editedCaseDiverges is the delta-debugging oracle: the edited program must
// interpret cleanly unoptimized, compile cleanly, and still disagree with
// its own baseline on the input. Any disagreement counts — delta debugging
// preserves "a divergence exists", not the original outcome pair.
func editedCaseDiverges(c Case, edits []edit, input int64) bool {
	base, entryB, err := editedProgram(c, edits)
	if err != nil {
		return false
	}
	want, err := interpret(base, entryB, c.Model, input)
	if err != nil {
		return false
	}
	opt, entryO, err := editedProgram(c, edits)
	if err != nil {
		return false
	}
	if _, err := jit.CompileProgram(opt, c.Config, c.Model); err != nil {
		return false
	}
	got, err := interpret(opt, entryO, c.Model, input)
	if err != nil {
		return false
	}
	return !got.Equal(want)
}

// dropUncalledMethods removes method bodies the entry function cannot reach,
// so the emitted reproducer carries only what the bug needs. Reachability is
// transitive over call instructions; bodyless externs are kept (they cost
// one line).
func dropUncalledMethods(p *ir.Program, entry *ir.Func) {
	keep := map[*ir.Func]bool{entry: true}
	var scan func(f *ir.Func)
	scan = func(f *ir.Func) {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Callee != nil && in.Callee.Fn != nil && !keep[in.Callee.Fn] {
					keep[in.Callee.Fn] = true
					scan(in.Callee.Fn)
				}
			}
		}
	}
	scan(entry)

	var methods []*ir.Method
	for _, m := range p.Methods {
		if m.Fn == nil || keep[m.Fn] {
			methods = append(methods, m)
		}
	}
	p.Methods = methods
	for _, c := range p.Classes {
		var virt []*ir.Method
		for _, m := range c.Methods {
			if m.Fn == nil || keep[m.Fn] {
				virt = append(virt, m)
			}
		}
		c.Methods = virt
	}
}
