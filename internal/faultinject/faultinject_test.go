package faultinject

import (
	"reflect"
	"sync"
	"testing"
)

// TestDecisionsArePureFunctions: every fault class answers identically for
// the same (seed, coordinates), and different seeds decorrelate.
func TestDecisionsArePureFunctions(t *testing.T) {
	a, b := New(42), New(42)

	pfA, pfB := a.PassFault("key1"), b.PassFault("key1")
	for _, m := range []string{"A.main", "B.get"} {
		for _, p := range []string{"phase1#0", "dce#3"} {
			if pfA(m, p) != pfB(m, p) {
				t.Fatalf("pass fault for (%s,%s) differs across injectors with the same seed", m, p)
			}
		}
	}

	for _, cell := range []string{"ia32-win/full/TrapStorm", "ppc-aix/write/NullStorm"} {
		sA, okA := a.StepFault(cell)
		sB, okB := b.StepFault(cell)
		if sA != sB || okA != okB {
			t.Fatalf("step fault for %s differs: (%d,%v) vs (%d,%v)", cell, sA, okA, sB, okB)
		}
		if okA && (sA < 1 || sA > a.MaxFaultStep) {
			t.Fatalf("step fault for %s at %d outside [1,%d]", cell, sA, a.MaxFaultStep)
		}
	}

	// A different seed must not reproduce seed 42's step decisions verbatim
	// over a reasonable coordinate space.
	c := New(43)
	same := true
	for _, cell := range []string{"c0", "c1", "c2", "c3", "c4", "c5", "c6", "c7"} {
		s1, ok1 := New(42).StepFault(cell)
		s2, ok2 := c.StepFault(cell)
		if s1 != s2 || ok1 != ok2 {
			same = false
		}
	}
	if same {
		t.Fatal("seeds 42 and 43 draw identical step schedules")
	}
}

// TestScheduleIsOrderIndependent: the rendered schedule depends only on
// WHICH coordinates were probed, not on probe order or concurrency.
func TestScheduleIsOrderIndependent(t *testing.T) {
	coords := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j"}

	probe := func(j *Injector, order []string, workers int) []string {
		var wg sync.WaitGroup
		ch := make(chan string)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				pf := j.PassFault("fixed-key")
				for c := range ch {
					j.StepFault(c)
					pf(c, "pass")
				}
			}()
		}
		for _, c := range order {
			ch <- c
		}
		close(ch)
		wg.Wait()
		return j.Schedule()
	}

	serial := probe(New(7), coords, 1)
	reversed := make([]string, len(coords))
	for i, c := range coords {
		reversed[len(coords)-1-i] = c
	}
	if got := probe(New(7), reversed, 1); !reflect.DeepEqual(serial, got) {
		t.Fatalf("schedule depends on probe order:\n%v\nvs\n%v", serial, got)
	}
	if got := probe(New(7), coords, 4); !reflect.DeepEqual(serial, got) {
		t.Fatalf("schedule depends on concurrency:\n%v\nvs\n%v", serial, got)
	}
	if len(serial) == 0 {
		t.Fatal("default rates armed nothing over 10 coordinates — the test probes nothing")
	}

	// Probing the same coordinate twice must not duplicate schedule lines
	// (seed 7 arms a step fault at "c").
	j := New(7)
	j.StepFault("c")
	j.StepFault("c")
	first := len(j.Schedule())
	if first == 0 {
		t.Fatal("seed 7 armed no step fault at \"c\" — the re-probe check probes nothing")
	}
	j.StepFault("c")
	if len(j.Schedule()) != first {
		t.Fatal("re-probing a coordinate grew the schedule")
	}
}

// TestBurstWindowsAreDisjointSortedAndSeeded: windows cover [0,n) without
// overlap, reproduce for the same seed, and move with it.
func TestBurstWindowsAreDisjointSortedAndSeeded(t *testing.T) {
	const n, nb = 1024, 3
	w1 := New(9).BurstWindows("SeededBurst[9]", n, nb)
	w2 := New(9).BurstWindows("SeededBurst[9]", n, nb)
	if !reflect.DeepEqual(w1, w2) {
		t.Fatalf("same seed drew different windows: %v vs %v", w1, w2)
	}
	if len(w1) != nb {
		t.Fatalf("got %d windows, want %d", len(w1), nb)
	}
	prevEnd := int64(0)
	for _, w := range w1 {
		start, length := w[0], w[1]
		if length < 1 {
			t.Fatalf("empty window %v", w)
		}
		if start < prevEnd {
			t.Fatalf("windows overlap or are unsorted: %v", w1)
		}
		if start+length > n {
			t.Fatalf("window %v exceeds [0,%d)", w, n)
		}
		prevEnd = start + length
	}
	if w3 := New(10).BurstWindows("SeededBurst[10]", n, nb); reflect.DeepEqual(w1, w3) {
		t.Fatal("different seeds drew identical windows")
	}
}

// TestZeroRatesDisable: a rate of 0 turns its fault class off entirely.
func TestZeroRatesDisable(t *testing.T) {
	j := New(5)
	j.PassFaultEvery, j.StepFaultEvery = 0, 0
	if j.PassFault("k") != nil {
		t.Fatal("PassFaultEvery=0 still returns a hook")
	}
	if _, ok := j.StepFault("c"); ok {
		t.Fatal("StepFaultEvery=0 still arms a step fault")
	}
	if len(j.Schedule()) != 0 {
		t.Fatalf("disabled injector recorded a schedule: %v", j.Schedule())
	}
}
