package jit

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"trapnull/internal/arch"
)

// TestCacheSingleFlightSharesCompileFailure: when the in-flight compilation
// of a key fails, every waiter coalesced onto that flight receives the SAME
// error, the failure is never cached, and the next lookup retries the
// compilation and succeeds.
func TestCacheSingleFlightSharesCompileFailure(t *testing.T) {
	c := NewCache(0)
	key := CacheKey{Model: arch.Model{Name: "test"}}

	const waiters = 8
	boom := errors.New("injected compile failure")
	inFlight := make(chan struct{})
	release := make(chan struct{})
	var compiles atomic.Int64

	// First flight: the leader enters the compile function, signals, then
	// blocks until every other goroutine has had time to coalesce.
	var wg sync.WaitGroup
	errs := make([]error, waiters)
	leader := func() (*CacheEntry, error) {
		compiles.Add(1)
		close(inFlight)
		<-release
		return nil, boom
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, errs[0] = c.GetOrCompile(key, false, leader)
	}()
	<-inFlight
	for i := 1; i < waiters; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, errs[i] = c.GetOrCompile(key, false, func() (*CacheEntry, error) {
				compiles.Add(1)
				return nil, boom
			})
		}()
	}
	// Give the waiters time to park on the slot's ready channel, then fail
	// the flight. A straggler that misses the flight window recompiles and
	// gets the same (deterministic) error, so the assertion below holds
	// regardless.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()

	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Fatalf("waiter %d: got %v, want the shared compile failure", i, err)
		}
	}

	// The failure must not be cached: a retry with a working compiler runs
	// it and succeeds.
	entry := &CacheEntry{Result: &Result{}}
	got, hit, err := c.GetOrCompile(key, false, func() (*CacheEntry, error) {
		compiles.Add(1)
		return entry, nil
	})
	if err != nil {
		t.Fatalf("retry after failure: %v", err)
	}
	if hit {
		t.Fatal("retry reported a cache hit — the failure was cached")
	}
	if got != entry {
		t.Fatal("retry did not return the fresh entry")
	}

	// And from now on the key hits.
	if _, hit, err := c.GetOrCompile(key, false, func() (*CacheEntry, error) {
		t.Error("cached key recompiled")
		return nil, nil
	}); err != nil || !hit {
		t.Fatalf("expected a hit after the successful retry (hit=%v err=%v)", hit, err)
	}

	st := c.Stats()
	if st.Misses < 2 {
		t.Fatalf("expected at least 2 misses (failed flight + retry), got %d", st.Misses)
	}
}
