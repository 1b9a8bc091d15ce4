package obs

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
)

// Decision log: a deterministic timeline of every adaptive decision one
// machine makes — tier transitions, spec-guard blacklists, deopt transfers,
// governor demotions/backoffs/pins, chaos arms/fires. The machine owns the
// log and appends each decision to it once (machine.Machine.Decisions); the
// tier and governor reports, the policy JSON and this package's Timeline
// are projections of it. Events are stamped with LOGICAL clocks only
// (invocation index + dynamic step), never wall time, so the recorded
// timeline is a semantic fact: byte-identical across engines, parallelism,
// and hosts.

// RecEvent is one recorded adaptive decision.
type RecEvent struct {
	Invocation int    `json:"invocation"` // 1-based Machine.Call index
	Step       int64  `json:"step"`       // dynamic instruction step within the run
	Cat        string `json:"cat"`        // subsystem: tier, governor, chaos
	Kind       string `json:"kind"`       // decision: promote-t1, deopt, demote, ...
	Subject    string `json:"subject"`    // method the decision is about
	// Ord is the check (deopt) or trap-site (demote) ordinal the decision
	// names; -1 when it names none.
	Ord int `json:"ord"`
	// Count is the checks a promote-t2 speculated, or the method's demoted
	// sites after a governor decision; 0 otherwise.
	Count  int    `json:"count"`
	Detail string `json:"detail,omitempty"`
}

// Count returns how many of events are decisions of one of the kinds.
func Count(events []RecEvent, kinds ...string) int {
	n := 0
	for _, ev := range events {
		if slices.Contains(kinds, ev.Kind) {
			n++
		}
	}
	return n
}

// TimelineCell is one named strand (a bench cell, a nulljit run) of the
// merged timeline: its machine's decision log and — when attribution was
// enabled — its trap-cost ledger.
type TimelineCell struct {
	Name   string       `json:"name"`
	Events []RecEvent   `json:"events"`
	Attr   *Attribution `json:"attr,omitempty"`
}

// Timeline merges the decision logs of many cells into one deterministic
// report (benchtab -timeline / nulljit -timeline). Cells render sorted by
// name; safe for concurrent Add.
type Timeline struct {
	mu    sync.Mutex
	cells []TimelineCell
}

// NewTimeline returns an empty timeline.
func NewTimeline() *Timeline { return &Timeline{} }

// Add records one cell's decision log (and optional attribution ledger)
// under the given name. Nil-safe.
func (t *Timeline) Add(name string, events []RecEvent, attr *Attribution) {
	if t == nil {
		return
	}
	c := TimelineCell{Name: name, Events: events, Attr: attr}
	t.mu.Lock()
	t.cells = append(t.cells, c)
	t.mu.Unlock()
}

// Cells returns the added cells sorted by name (recording order within each
// cell is preserved; names are unique per report by construction).
func (t *Timeline) Cells() []TimelineCell {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	cells := append([]TimelineCell(nil), t.cells...)
	t.mu.Unlock()
	sort.SliceStable(cells, func(i, j int) bool { return cells[i].Name < cells[j].Name })
	return cells
}

// Render writes the deterministic text form: one section per cell (sorted by
// name), one line per event ordered by logical clock.
func (t *Timeline) Render() string {
	var b strings.Builder
	b.WriteString("# adaptive-decision timeline (logical clocks: invocation/step)\n")
	for _, c := range t.Cells() {
		fmt.Fprintf(&b, "== %s ==\n", c.Name)
		if len(c.Events) == 0 && c.Attr == nil {
			b.WriteString("  (no adaptive events)\n")
		}
		for _, e := range c.Events {
			fmt.Fprintf(&b, "  inv %3d step %10d  %-8s %-22s %s", e.Invocation, e.Step, e.Cat, e.Kind, e.Subject)
			if e.Detail != "" {
				fmt.Fprintf(&b, "  (%s)", e.Detail)
			}
			b.WriteByte('\n')
		}
		if c.Attr != nil {
			c.Attr.Render(&b, "  ")
		}
	}
	return b.String()
}
