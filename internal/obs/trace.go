package obs

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// Event is one Chrome trace-event (the "Trace Event Format" consumed by
// Perfetto and chrome://tracing). Two phases are emitted: complete events
// (ph "X") carry their own duration and nest by containment within the same
// pid/tid lane; instant events (ph "i", scope "t") mark adaptive decisions
// as zero-width ticks on the cell's lane.
type Event struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds since trace start
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int64          `json:"tid"`
	S    string         `json:"s,omitempty"` // instant-event scope ("t" = thread)
	Args map[string]any `json:"args,omitempty"`
}

// Trace collects spans from concurrent compilations and executions. Each
// logical strand (one bench cell, one nulljit run) takes its own tid via
// NextTID so its spans nest in their own lane. Safe for concurrent use.
type Trace struct {
	mu    sync.Mutex
	start time.Time
	ev    []Event
	tid   int64
}

// NewTrace starts an empty trace; timestamps are relative to this call.
func NewTrace() *Trace { return &Trace{start: time.Now()} }

// NextTID allocates a fresh lane for one strand of spans.
func (t *Trace) NextTID() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.tid++
	return t.tid
}

// Span records one complete event on the given lane.
func (t *Trace) Span(tid int64, cat, name string, start time.Time, dur time.Duration, args map[string]any) {
	e := Event{
		Name: name,
		Cat:  cat,
		Ph:   "X",
		TS:   float64(start.Sub(t.start)) / float64(time.Microsecond),
		Dur:  float64(dur) / float64(time.Microsecond),
		PID:  1,
		TID:  tid,
		Args: args,
	}
	t.mu.Lock()
	t.ev = append(t.ev, e)
	t.mu.Unlock()
}

// Instant records one zero-width thread-scoped instant event (ph "i") on the
// given lane — the Perfetto form of an adaptive decision from a machine's
// decision log. at is the wall position on the lane; the decision's logical
// clocks travel in args.
func (t *Trace) Instant(tid int64, cat, name string, at time.Time, args map[string]any) {
	e := Event{
		Name: name,
		Cat:  cat,
		Ph:   "i",
		TS:   float64(at.Sub(t.start)) / float64(time.Microsecond),
		PID:  1,
		TID:  tid,
		S:    "t",
		Args: args,
	}
	t.mu.Lock()
	t.ev = append(t.ev, e)
	t.mu.Unlock()
}

// Events returns a snapshot of the recorded events.
func (t *Trace) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Event(nil), t.ev...)
}

// traceFile is the JSON object form of the trace-event format; Perfetto also
// accepts a bare array, but the object form carries the display unit.
type traceFile struct {
	TraceEvents     []Event `json:"traceEvents"`
	DisplayTimeUnit string  `json:"displayTimeUnit"`
}

// JSON renders the trace as Perfetto-loadable trace-event JSON.
func (t *Trace) JSON() ([]byte, error) {
	f := traceFile{TraceEvents: t.Events(), DisplayTimeUnit: "ms"}
	if f.TraceEvents == nil {
		f.TraceEvents = []Event{}
	}
	return json.MarshalIndent(f, "", " ")
}

// WriteFile validates and writes the trace to path.
func (t *Trace) WriteFile(path string) error {
	data, err := t.JSON()
	if err != nil {
		return err
	}
	if !json.Valid(data) {
		// Unreachable for a correct encoder; kept as the explicit "the file
		// we ship parses" guarantee the CI smoke pass relies on.
		return os.ErrInvalid
	}
	return os.WriteFile(path, data, 0o644)
}
