package obs

import (
	"fmt"
	"sort"
	"strings"

	"trapnull/internal/ir"
)

// ExecProfile counts basic-block entries during simulated execution, for a
// caller who attached it (Machine.Profile). It is a report only: nothing the
// machine decides or charges reads it. The machines fetch one dense counter
// slice per function call and pay a single slice increment per block entry,
// so the enabled overhead stays inside the obs budget and the disabled cost
// is one nil test per call. Block-entry counts are semantic facts (identical
// across engines); a differential test in internal/machine pins that.
//
// Counts are kept per function body: a tiered machine's artifact
// generations of one method each count their own entries, and every block
// entry lands in exactly one body's counters.
//
// An ExecProfile is owned by one Machine and is not safe for concurrent use,
// matching the Machine itself.
type ExecProfile struct {
	funcs map[*ir.Func][]int64
	order []*ir.Func // registration order: deterministic iteration
}

// NewExecProfile returns an empty profile.
func NewExecProfile() *ExecProfile {
	return &ExecProfile{funcs: make(map[*ir.Func][]int64)}
}

// CheckCounts is one null check's or trap site's dynamic counts: how many
// times it executed and how many of those executions saw a null reference.
// The machine's adaptive policies and trap-cost attribution own their cells
// and bind one pointer per prepared instruction, so the hot path pays two
// field increments and no map lookups.
type CheckCounts struct {
	Execs int64
	Nulls int64
}

// Counters returns fn's per-block entry counters, indexed by block ID.
func (p *ExecProfile) Counters(fn *ir.Func) []int64 {
	if c, ok := p.funcs[fn]; ok {
		return c
	}
	c := make([]int64, fn.MaxBlockID()+1)
	p.funcs[fn] = c
	p.order = append(p.order, fn)
	return c
}

// TotalBlocks sums every block-entry count.
func (p *ExecProfile) TotalBlocks() int64 {
	var n int64
	for _, counts := range p.funcs {
		for _, v := range counts {
			n += v
		}
	}
	return n
}

// HotBlock is one profiled block with its source anchors.
type HotBlock struct {
	Fn     *ir.Func
	Method string
	Block  string
	Count  int64
}

// Hot returns the top-n blocks by entry count. Ordering is deterministic:
// count descending, then method name, then block name, then registration
// order (generations of one method share method and block names).
func (p *ExecProfile) Hot(n int) []HotBlock {
	var all []HotBlock
	for _, fn := range p.order {
		counters := p.funcs[fn]
		name := funcLabel(fn)
		for _, b := range fn.Blocks {
			if b.ID < len(counters) && counters[b.ID] > 0 {
				all = append(all, HotBlock{Fn: fn, Method: name, Block: b.Name, Count: counters[b.ID]})
			}
		}
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].Count != all[j].Count {
			return all[i].Count > all[j].Count
		}
		if all[i].Method != all[j].Method {
			return all[i].Method < all[j].Method
		}
		return all[i].Block < all[j].Block
	})
	if n > 0 && len(all) > n {
		all = all[:n]
	}
	return all
}

func funcLabel(fn *ir.Func) string {
	if fn.Method != nil {
		return fn.Method.QualifiedName()
	}
	return fn.Name
}

// BlockProfile is the serializable form of one hot block, with the fates of
// the checks anchored there overlaid when remarks were collected.
type BlockProfile struct {
	Method string   `json:"method"`
	Block  string   `json:"block"`
	Count  int64    `json:"count"`
	Checks []string `json:"checks,omitempty"`
}

// ProfileSummary is the deterministic, JSON-friendly digest of one profiled
// run: total block entries, the trap/check dynamics, and the top-N blocks.
// Fields are fixed-order structs and sorted slices — never maps — so two
// marshals of the same run are byte-identical.
type ProfileSummary struct {
	BlocksEntered  int64          `json:"blocks_entered"`
	TrapsTaken     int64          `json:"traps_taken"`
	ExplicitChecks int64          `json:"dyn_explicit_checks"`
	ImplicitSites  int64          `json:"dyn_implicit_sites"`
	Hot            []BlockProfile `json:"hot_blocks"`
}

// Summary digests the profile. rem may be nil; when present, each hot block
// is annotated with the terminal fates of the checks anchored in it. The
// trap/check counters come from the machine's ExecStats (passed in by the
// caller — obs sits below the machine package).
func (p *ExecProfile) Summary(topN int, rem *Remarks, traps, explicit, implicit int64) *ProfileSummary {
	s := &ProfileSummary{
		BlocksEntered:  p.TotalBlocks(),
		TrapsTaken:     traps,
		ExplicitChecks: explicit,
		ImplicitSites:  implicit,
	}
	for _, hb := range p.Hot(topN) {
		bp := BlockProfile{Method: hb.Method, Block: hb.Block, Count: hb.Count}
		if rem != nil {
			bp.Checks = rem.ChecksAt(hb.Fn, hb.Block)
		}
		s.Hot = append(s.Hot, bp)
	}
	return s
}

// Render writes the hot-block report (benchtab -profile, nulljit -profile).
func (s *ProfileSummary) Render(sb *strings.Builder) {
	fmt.Fprintf(sb, "blocks entered %d, traps taken %d, explicit checks %d, implicit sites %d\n",
		s.BlocksEntered, s.TrapsTaken, s.ExplicitChecks, s.ImplicitSites)
	for i, h := range s.Hot {
		fmt.Fprintf(sb, "  %2d. %-28s %-14s %12d", i+1, h.Method, h.Block, h.Count)
		if len(h.Checks) > 0 {
			fmt.Fprintf(sb, "  [%s]", strings.Join(h.Checks, "; "))
		}
		sb.WriteByte('\n')
	}
}
