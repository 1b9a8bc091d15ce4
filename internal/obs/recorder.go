package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Flight recorder: a deterministic timeline of every adaptive
// decision one machine makes — tier transitions, spec-guard blacklists,
// deopt transfers, governor demotions/backoffs/pins, chaos arms/fires.
// Events are stamped with LOGICAL clocks only (invocation index + dynamic
// step), never wall time, so the recorded timeline is a semantic fact:
// byte-identical across engines, parallelism, and hosts.

// RecEvent is one recorded adaptive decision.
type RecEvent struct {
	Invocation int    `json:"invocation"` // 1-based Machine.Call index
	Step       int64  `json:"step"`       // dynamic instruction step within the run
	Cat        string `json:"cat"`        // subsystem: tier, governor, chaos
	Kind       string `json:"kind"`       // decision: promote-t1, deopt, demote, ...
	Subject    string `json:"subject"`    // method the decision is about
	Detail     string `json:"detail,omitempty"`
}

// Recorder accumulates one machine's events. Like the tier and governor
// event logs it mirrors, it has no cap: the controllers' budgets bound the
// decisions a machine makes per method (one promote-t1,
// TierPolicy.SpecRecompileBudget promote-t2s and deopts,
// GovernorPolicy.RecompileBudget demotes or pins, each with one
// backoff-armed). Owned by one Machine; not safe for concurrent use,
// matching the Machine itself. Nil-safe: all methods no-op on a nil
// receiver.
type Recorder struct {
	invocation int
	events     []RecEvent
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// BeginInvocation advances the logical invocation clock. The machine calls
// it at the top of every Call, so events sort by (invocation, step).
func (r *Recorder) BeginInvocation() {
	if r != nil {
		r.invocation++
	}
}

// Record appends one event at the current invocation and the given step.
func (r *Recorder) Record(step int64, cat, kind, subject, detail string) {
	if r == nil {
		return
	}
	r.events = append(r.events, RecEvent{
		Invocation: r.invocation, Step: step,
		Cat: cat, Kind: kind, Subject: subject, Detail: detail,
	})
}

// Events returns the recorded events in recording order.
func (r *Recorder) Events() []RecEvent {
	if r == nil {
		return nil
	}
	return append([]RecEvent(nil), r.events...)
}

// TimelineCell is one named strand (a bench cell, a nulljit run) of the
// merged timeline: its recorded events and — when attribution was enabled —
// its trap-cost ledger.
type TimelineCell struct {
	Name   string       `json:"name"`
	Events []RecEvent   `json:"events"`
	Attr   *Attribution `json:"attr,omitempty"`
}

// Timeline merges the flight recorders of many cells into one deterministic
// report (benchtab -timeline / nulljit -timeline). Cells render sorted by
// name; safe for concurrent Add.
type Timeline struct {
	mu    sync.Mutex
	cells []TimelineCell
}

// NewTimeline returns an empty timeline.
func NewTimeline() *Timeline { return &Timeline{} }

// Add records one cell's recorder output (and optional attribution ledger)
// under the given name. Nil-safe.
func (t *Timeline) Add(name string, rec *Recorder, attr *Attribution) {
	if t == nil {
		return
	}
	c := TimelineCell{Name: name, Events: rec.Events(), Attr: attr}
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
