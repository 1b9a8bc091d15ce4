package obs

import (
	"strings"
	"sync"
	"testing"
)

// TestRegistryRegistrationOrder pins the determinism mechanism: snapshots
// render in registration order, never map order, and re-registering a name
// returns the original cell.
func TestRegistryRegistrationOrder(t *testing.T) {
	r := NewRegistry()
	r.Counter("z.last", "")
	r.Counter("a.first", "")
	r.Histogram("m.middle", "", []int64{1})
	snap := r.Snapshot(false)
	got := []string{snap[0].Name, snap[1].Name, snap[2].Name}
	want := []string{"z.last", "a.first", "m.middle"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("snapshot order %v, want %v", got, want)
		}
	}
	c1 := r.Counter("z.last", "")
	c1.Add(5)
	if r.Snapshot(false)[0].Value != 5 {
		t.Error("re-registration returned a fresh cell instead of the original")
	}
	if len(r.Snapshot(false)) != 3 {
		t.Error("re-registration grew the registry")
	}
}

// TestRegistryVolatileQuarantine pins the volatile split: Snapshot(false)
// excludes volatile metrics, Snapshot(true) includes them in order.
func TestRegistryVolatileQuarantine(t *testing.T) {
	r := NewRegistry()
	r.Counter("det", "").Add(1)
	r.VolatileCounter("host_us", "").Add(12345)
	det := r.Snapshot(false)
	if len(det) != 1 || det[0].Name != "det" {
		t.Fatalf("deterministic snapshot leaked volatile metrics: %+v", det)
	}
	all := r.Snapshot(true)
	if len(all) != 2 || all[1].Name != "host_us" {
		t.Fatalf("volatile snapshot wrong: %+v", all)
	}
	if strings.Contains(r.RenderText(false), "host_us") {
		t.Error("RenderText(false) leaked a volatile metric")
	}
}

// TestHistogramBuckets pins the bucket semantics: first admitting bound
// counts the sample, the overflow bucket takes the rest, and the value field
// accumulates the raw sum.
func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("cycles", "", []int64{10, 100})
	for _, v := range []int64{5, 10, 50, 1000} {
		h.Observe(v)
	}
	s := r.Snapshot(false)[0]
	if s.Value != 1065 {
		t.Errorf("histogram sum %d, want 1065", s.Value)
	}
	counts := []int64{s.Buckets[0].Count, s.Buckets[1].Count, s.Buckets[2].Count}
	want := []int64{2, 1, 1} // ≤10: {5,10}; ≤100: {50}; +inf: {1000}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("bucket counts %v, want %v", counts, want)
		}
	}
	if s.Buckets[2].Le != -1 {
		t.Errorf("overflow bucket Le = %d, want -1", s.Buckets[2].Le)
	}
}

// TestRegistryNilSafe pins the zero-cost-off contract: every method no-ops on
// a nil registry and a nil metric.
func TestRegistryNilSafe(t *testing.T) {
	var r *Registry
	m := r.Counter("x", "")
	m.Add(1)
	m.Observe(3)
	if r.Snapshot(true) != nil {
		t.Error("nil registry produced a snapshot")
	}
}

// TestRegistryConcurrentPublish pins that concurrent Add calls sum correctly
// (atomic, commutative) so parallel sweep workers cannot corrupt a counter.
func TestRegistryConcurrentPublish(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n", "")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := r.Snapshot(false)[0].Value; got != 8000 {
		t.Errorf("concurrent adds summed to %d, want 8000", got)
	}
}

// TestTimelineNilSafe pins that a run without a timeline pays only nil
// tests: Add and Cells no-op on a nil timeline.
func TestTimelineNilSafe(t *testing.T) {
	var tl *Timeline
	tl.Add("x", []RecEvent{{Invocation: 1, Step: 1, Cat: "a", Kind: "b", Subject: "c"}}, nil)
	if tl.Cells() != nil {
		t.Error("nil timeline holds cells")
	}
}

// TestTimelineRenderSorted pins the merge determinism: cells render sorted
// by name regardless of Add order, so concurrent workers cannot reorder the
// report.
func TestTimelineRenderSorted(t *testing.T) {
	tl := NewTimeline()
	tl.Add("zeta", []RecEvent{{Invocation: 1, Step: 7, Cat: "governor", Kind: "demote",
		Subject: "List.walk", Ord: 2, Count: 1, Detail: "site 2"}}, nil)
	tl.Add("alpha", nil, &Attribution{TotalCycles: 10, GuardFree: 10})
	out := tl.Render()
	if strings.Index(out, "== alpha ==") > strings.Index(out, "== zeta ==") {
		t.Errorf("cells not sorted by name:\n%s", out)
	}
	if !strings.Contains(out, "inv   1 step          7") {
		t.Errorf("event line missing logical clocks:\n%s", out)
	}
	if !strings.Contains(out, "total 10 = implicit 0 + explicit 0 + trap 0 + guard-free 10") {
		t.Errorf("attribution line missing:\n%s", out)
	}
}
