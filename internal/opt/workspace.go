package opt

import (
	"sync"

	"trapnull/internal/bitset"
	"trapnull/internal/cfg"
	"trapnull/internal/ir"
)

// workspace is the scratch memory of one pass: running sets, the block-local
// copy and load tables, bounds-check keys, scalar replacement's definition
// counts, loop summary and promotion candidates. Workspaces live in a
// package-level pool, as the data-flow solver's do; a pass takes one on
// entry and puts it back before it returns, so a pass allocates no scratch
// once a workspace has served a function as large.
type workspace struct {
	cur, kill bitset.Set    // running sets of a walk over a block
	num       cfg.Numbering // removeUnreachable's reachability
	copyOf    map[ir.VarID]ir.Operand
	avail     map[loadKey]ir.VarID
	bcIndex   map[bcKey]int
	bcKeys    []bcKey
	defs      []int32 // countDefs, by VarID
	sum       loopSummary
	blocks    []*ir.Block // hoistLoop's visiting order
	cand      []access    // promoteLoop's candidate fields
	promote   []*access
}

var workspaces = sync.Pool{New: func() any {
	return &workspace{
		copyOf:  map[ir.VarID]ir.Operand{},
		avail:   map[loadKey]ir.VarID{},
		bcIndex: map[bcKey]int{},
	}
}}

func getWorkspace() *workspace { return workspaces.Get().(*workspace) }

func (ws *workspace) release() { workspaces.Put(ws) }
