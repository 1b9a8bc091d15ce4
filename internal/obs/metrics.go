package obs

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// Metrics registry: the unified counter plane every subsystem reports
// through (benchtab -metrics, nulljit -metrics). Three properties carry over
// from the rest of the obs layer:
//
//   - Deterministic serialization. Snapshots render in REGISTRATION order —
//     never map order — and the bench harness registers the full standard
//     metric set up front (single-threaded, before any worker starts), so
//     the same sweep produces byte-identical snapshots at any parallelism
//     and on either engine.
//   - Zero cost when disabled. Every method is nil-safe on both *Registry
//     and *Metric, so callers hold a possibly-nil registry and pay one nil
//     test per publish point; the hot execution paths never touch metrics at
//     all (subsystems publish their existing private tallies after the fact).
//   - Volatile metrics are quarantined. Host timings and interleaving-
//     dependent counts (compile µs, single-flight waits) register as
//     volatile; Snapshot(false) excludes them, which is what the determinism
//     contract — and the CI telemetry smoke — compares.
type MetricKind uint8

const (
	KindCounter MetricKind = iota
	KindHistogram
)

func (k MetricKind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindHistogram:
		return "histogram"
	}
	return "unknown"
}

// Metric is one typed cell. A counter holds a single int64; a histogram
// additionally holds cumulative-style bucket counts over fixed upper
// bounds. Updates are atomic (commutative), so concurrent publishers
// still sum deterministically.
type Metric struct {
	name     string
	help     string
	kind     MetricKind
	volatile bool

	v       atomic.Int64
	bounds  []int64 // histogram upper bounds, strictly increasing
	buckets []atomic.Int64
}

// Add increments a counter by n. Nil-safe.
func (m *Metric) Add(n int64) {
	if m != nil {
		m.v.Add(n)
	}
}

// Observe records one histogram sample: the first bucket whose upper bound
// admits v counts it (the last bucket is the overflow). Nil-safe.
func (m *Metric) Observe(v int64) {
	if m == nil {
		return
	}
	m.v.Add(v)
	for i, ub := range m.bounds {
		if v <= ub {
			m.buckets[i].Add(1)
			return
		}
	}
	m.buckets[len(m.buckets)-1].Add(1)
}

// Registry holds metrics in registration order.
type Registry struct {
	mu     sync.Mutex
	byName map[string]*Metric
	order  []*Metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*Metric)}
}

// get returns the named metric, creating it on first registration. A name
// registered twice returns the original cell (kind and flags win on first
// registration), so create-or-get publish points are safe.
func (r *Registry) get(name, help string, kind MetricKind, volatile bool, bounds []int64) *Metric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byName[name]; ok {
		return m
	}
	m := &Metric{name: name, help: help, kind: kind, volatile: volatile}
	if kind == KindHistogram {
		m.bounds = append([]int64(nil), bounds...)
		m.buckets = make([]atomic.Int64, len(bounds)+1)
	}
	r.byName[name] = m
	r.order = append(r.order, m)
	return m
}

// Counter registers (or returns) a deterministic counter. Nil-safe.
func (r *Registry) Counter(name, help string) *Metric {
	return r.get(name, help, KindCounter, false, nil)
}

// VolatileCounter registers a counter whose value depends on host timing or
// goroutine interleaving (compile µs, single-flight waits). Volatile metrics
// are excluded from deterministic snapshots.
func (r *Registry) VolatileCounter(name, help string) *Metric {
	return r.get(name, help, KindCounter, true, nil)
}

// Histogram registers (or returns) a deterministic histogram over the given
// strictly-increasing upper bounds; one overflow bucket is added. Nil-safe.
func (r *Registry) Histogram(name, help string, bounds []int64) *Metric {
	return r.get(name, help, KindHistogram, false, bounds)
}

// HistBucket is one serialized histogram bucket: samples ≤ Le. Le of the
// overflow bucket is -1 (rendered "+inf").
type HistBucket struct {
	Le    int64 `json:"le"`
	Count int64 `json:"count"`
}

// MetricSnapshot is the fixed-order serialized form of one metric.
type MetricSnapshot struct {
	Name    string       `json:"name"`
	Kind    string       `json:"kind"`
	Value   int64        `json:"value"`
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// Snapshot captures every metric in registration order. includeVolatile
// selects whether timing/interleaving-dependent metrics appear; the
// determinism contract compares Snapshot(false) only. Nil-safe (returns nil).
func (r *Registry) Snapshot(includeVolatile bool) []MetricSnapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	order := append([]*Metric(nil), r.order...)
	r.mu.Unlock()
	var out []MetricSnapshot
	for _, m := range order {
		if m.volatile && !includeVolatile {
			continue
		}
		s := MetricSnapshot{Name: m.name, Kind: m.kind.String(), Value: m.v.Load()}
		if m.kind == KindHistogram {
			for i := range m.buckets {
				le := int64(-1)
				if i < len(m.bounds) {
					le = m.bounds[i]
				}
				s.Buckets = append(s.Buckets, HistBucket{Le: le, Count: m.buckets[i].Load()})
			}
		}
		out = append(out, s)
	}
	return out
}

// RenderText writes the snapshot as the benchtab/nulljit -metrics text form:
// one "name kind value" line per metric in registration order, histogram
// buckets indented beneath. Deterministic for includeVolatile=false.
func (r *Registry) RenderText(includeVolatile bool) string {
	var b strings.Builder
	b.WriteString("# telemetry metrics snapshot\n")
	for _, s := range r.Snapshot(includeVolatile) {
		fmt.Fprintf(&b, "%-32s %-10s %d\n", s.Name, s.Kind, s.Value)
		for _, hb := range s.Buckets {
			if hb.Le < 0 {
				fmt.Fprintf(&b, "  le=+inf %d\n", hb.Count)
			} else {
				fmt.Fprintf(&b, "  le=%d %d\n", hb.Le, hb.Count)
			}
		}
	}
	return b.String()
}
