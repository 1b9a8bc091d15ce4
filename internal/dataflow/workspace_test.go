package dataflow

import (
	"strings"
	"sync"
	"testing"

	"trapnull/internal/bitset"
	"trapnull/internal/ir"
)

// workspaceProblems covers both directions and both meets, with edge
// functions and a solver-supplied boundary, so every piece of workspace
// memory is exercised.
func workspaceProblems(m map[string]*ir.Block) []*Problem {
	const size = 70 // two words: not the inline storage of a small set
	gen := map[*ir.Block]*bitset.Set{m["body"]: setOf(size, 0, 65), m["exit"]: setOf(size, 0)}
	kill := map[*ir.Block]*bitset.Set{m["header"]: setOf(size, 3)}
	add := setOf(size, 7)
	sub := setOf(size, 65)
	edgeAdd := func(from, to *ir.Block) *bitset.Set {
		if from == m["entry"] {
			return add
		}
		return nil
	}
	edgeSub := func(from, to *ir.Block) *bitset.Set {
		if to == m["exit"] {
			return sub
		}
		return nil
	}
	var ps []*Problem
	for _, dir := range []Direction{Forward, Backward} {
		for _, meet := range []Meet{Intersect, Union} {
			ps = append(ps, &Problem{
				Dir: dir, Meet: meet, Size: size,
				Scan:    scanOf(gen, kill),
				EdgeAdd: edgeAdd, EdgeSubtract: edgeSub,
			})
		}
	}
	return ps
}

// render prints every block's In and Out.
func render(f *ir.Func, r *Result) string {
	var sb strings.Builder
	for _, b := range f.Blocks {
		sb.WriteString(b.Name + " " + r.In(b).String() + " " + r.Out(b).String() + "\n")
	}
	return sb.String()
}

// TestSolveAfterReleaseAllocatesNothing: once a workspace has served a
// function, solving it again after Release allocates nothing, the Result
// included.
func TestSolveAfterReleaseAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops released workspaces at random")
	}
	f, m := loop()
	for _, p := range workspaceProblems(m) {
		Solve(f, p).Release()
		allocs := testing.AllocsPerRun(100, func() {
			Solve(f, p).Release()
		})
		if allocs != 0 {
			t.Errorf("dir=%v meet=%v: %v allocations per solve after Release, want 0", p.Dir, p.Meet, allocs)
		}
	}
}

// TestLiveResultsNeverShareSets: two unreleased Results own disjoint
// memory, and releasing one (and reusing its workspace) leaves the other
// intact.
func TestLiveResultsNeverShareSets(t *testing.T) {
	f, m := loop()
	p := workspaceProblems(m)[0]
	want := render(f, Solve(f, p))

	a, b := Solve(f, p), Solve(f, p)
	seen := map[*bitset.Set]bool{}
	for _, r := range []*Result{a, b} {
		for _, blk := range f.Blocks {
			for _, s := range []*bitset.Set{r.In(blk), r.Out(blk)} {
				if seen[s] {
					t.Fatalf("set of %s handed out twice", blk.Name)
				}
				seen[s] = true
			}
		}
	}
	for _, blk := range f.Blocks {
		a.In(blk).Fill()
		a.Out(blk).Clear()
	}
	if got := render(f, b); got != want {
		t.Fatalf("writing one live Result changed the other:\n%s\nwant\n%s", got, want)
	}
	a.Release()
	c := Solve(f, workspaceProblems(m)[3])
	if got := render(f, b); got != want {
		t.Fatalf("a solve reusing a released workspace changed a live Result:\n%s\nwant\n%s", got, want)
	}
	c.Release()
	b.Release()
	b.Release() // a second Release is a no-op, not a double Put
}

// TestConcurrentSolves runs solves of every problem shape from several
// goroutines at once; under -race this exercises the workspace pool.
func TestConcurrentSolves(t *testing.T) {
	f, m := loop()
	ps := workspaceProblems(m)
	want := make([]string, len(ps))
	for i, p := range ps {
		r := Solve(f, p)
		want[i] = render(f, r)
		r.Release()
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := (g + i) % len(ps)
				r := Solve(f, ps[k])
				if got := render(f, r); got != want[k] {
					errs <- got
					return
				}
				r.Release()
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for got := range errs {
		t.Errorf("concurrent solve diverged:\n%s", got)
	}
}
