package cache

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestLRUEvictionOrder checks both eviction order and that a hit
// refreshes recency, by which keys recompute.
func TestLRUEvictionOrder(t *testing.T) {
	c := New[int, int](2)
	get := func(i int) Outcome {
		v, out, err := c.GetOrCompute(i, func() (int, error) { return i, nil })
		if err != nil || v != i {
			t.Fatalf("entry %d: %d, %v", i, v, err)
		}
		return out
	}
	get(1)
	get(2)
	if out := get(1); out != OutcomeHit { // refresh 1; 2 becomes LRU
		t.Fatalf("entry 1 missing (outcome %v)", out)
	}
	get(3) // evicts 2
	s := c.Stats()
	if s.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", s.Evictions)
	}
	if s.Entries != 2 {
		t.Errorf("entries = %d, want 2", s.Entries)
	}
	for _, i := range []int{1, 3} {
		if out := get(i); out != OutcomeHit {
			t.Errorf("entry %d lost (outcome %v)", i, out)
		}
	}
	if out := get(2); out != OutcomeMiss {
		t.Errorf("entry 2 survived eviction; LRU order wrong (outcome %v)", out)
	}
}

// TestGetOrCompute covers the miss-compute-hit cycle and error paths.
func TestGetOrCompute(t *testing.T) {
	c := New[int, string](8)
	const k, ke = 1, 2
	calls := 0
	get := func() (string, error) { calls++; return "v", nil }
	for i := 0; i < 3; i++ {
		v, out, err := c.GetOrCompute(k, get)
		if err != nil || v != "v" {
			t.Fatalf("round %d: %q, %v", i, v, err)
		}
		want := OutcomeHit
		if i == 0 {
			want = OutcomeMiss
		}
		if out != want {
			t.Errorf("round %d: outcome %v, want %v", i, out, want)
		}
	}
	if calls != 1 {
		t.Errorf("compute ran %d times, want 1", calls)
	}
	// Errors are not cached: the next call recomputes.
	boom := errors.New("boom")
	if _, _, err := c.GetOrCompute(ke, func() (string, error) { return "", boom }); err != boom {
		t.Fatalf("error not propagated: %v", err)
	}
	if v, _, err := c.GetOrCompute(ke, func() (string, error) { return "ok", nil }); err != nil || v != "ok" {
		t.Fatalf("error was cached: %q, %v", v, err)
	}
	s := c.Stats()
	if s.Hits != 2 || s.Misses != 3 {
		t.Errorf("stats = %+v, want 2 hits / 3 misses", s)
	}
}

// TestConcurrentGetPut hammers a small cache from many goroutines with
// hits, misses, evictions and coalesced waits; run under -race this is
// the data-race check for the LRU internals.
func TestConcurrentGetPut(t *testing.T) {
	c := New[int, int](16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				v, _, err := c.GetOrCompute(i%32, func() (int, error) { return i % 32, nil })
				if err != nil || v != i%32 {
					t.Errorf("goroutine %d: key %d = %d, %v", g, i%32, v, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	s := c.Stats()
	if s.Entries > 16 {
		t.Errorf("capacity exceeded: %d entries", s.Entries)
	}
	if s.Hits+s.Misses != 8*500 {
		t.Errorf("stats = %+v, want 4000 lookups", s)
	}
}

// TestInflightCoalescing checks that concurrent GetOrCompute calls for
// one key run the compute function exactly once and all share the result.
func TestInflightCoalescing(t *testing.T) {
	c := New[int, int](4)
	const k = 1
	var computes atomic.Int32
	gate := make(chan struct{})
	const waiters = 6
	results := make(chan int, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, _, err := c.GetOrCompute(k, func() (int, error) {
				computes.Add(1)
				<-gate // hold every racer in the in-flight window
				return 42, nil
			})
			if err != nil {
				t.Error(err)
			}
			results <- v
		}()
	}
	close(gate)
	wg.Wait()
	close(results)
	for v := range results {
		if v != 42 {
			t.Errorf("waiter got %d, want 42", v)
		}
	}
	if n := computes.Load(); n != 1 {
		t.Errorf("compute ran %d times, want 1", n)
	}
}

// TestCoalescedWaits pins the wait path deterministically: the computing
// caller is held inside its compute until the other n-1 callers for the
// key are counted as waits, so exactly one lookup misses and the rest
// wait, whether the compute succeeds or fails. A failed compute hands
// its error to every waiter and is not cached.
func TestCoalescedWaits(t *testing.T) {
	const n = 5
	c := New[int, int](4)
	k := 1
	boom := errors.New("boom")

	type result struct {
		v   int
		out Outcome
		err error
	}
	// round runs n lookups of k that all arrive while the first one's
	// compute, which returns (v, err), is in flight.
	round := func(v int, err error) []result {
		entered, release := make(chan struct{}), make(chan struct{})
		results := make([]result, n)
		waits0 := c.Stats().Waits
		var wg sync.WaitGroup
		lookup := func(i int) {
			defer wg.Done()
			r := &results[i]
			r.v, r.out, r.err = c.GetOrCompute(k, func() (int, error) {
				close(entered)
				<-release
				return v, err
			})
		}
		wg.Add(n)
		go lookup(0)
		<-entered
		for i := 1; i < n; i++ {
			go lookup(i)
		}
		for deadline := time.Now().Add(10 * time.Second); c.Stats().Waits < waits0+n-1; runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Fatalf("waits = %d after 10 s, want %d", c.Stats().Waits-waits0, n-1)
			}
		}
		close(release)
		wg.Wait()
		return results
	}

	for i, r := range round(42, nil) {
		want := OutcomeWait
		if i == 0 {
			want = OutcomeMiss
		}
		if r.v != 42 || r.out != want || r.err != nil {
			t.Errorf("lookup %d = %d, %v, %v; want 42, %v, nil", i, r.v, r.out, r.err, want)
		}
	}
	if s := c.Stats(); s.Hits != n-1 || s.Waits != n-1 || s.Misses != 1 {
		t.Errorf("stats = %+v, want hits = waits = %d, misses = 1", s, n-1)
	}

	k = 2
	for i, r := range round(0, boom) {
		want := OutcomeWait
		if i == 0 {
			want = OutcomeMiss
		}
		if r.err != boom || r.out != want {
			t.Errorf("failing lookup %d = %v, %v; want boom, %v", i, r.out, r.err, want)
		}
	}
	if s := c.Stats(); s.Hits != 2*(n-1) || s.Waits != 2*(n-1) || s.Misses != 2 {
		t.Errorf("stats = %+v, want hits = waits = %d, misses = 2", s, 2*(n-1))
	}
	v, out, err := c.GetOrCompute(k, func() (int, error) { return 7, nil })
	if v != 7 || out != OutcomeMiss || err != nil {
		t.Errorf("after a failed compute: %d, %v, %v; want 7, miss, nil", v, out, err)
	}
}

// TestNilCacheSafe checks the nil-cache contract used by optional wiring.
func TestNilCacheSafe(t *testing.T) {
	var c *Cache[int, int]
	for i := 0; i < 2; i++ {
		v, out, err := c.GetOrCompute(0, func() (int, error) { return 9, nil })
		if err != nil || v != 9 || out != OutcomeNone {
			t.Errorf("nil GetOrCompute = %d, %v, %v", v, out, err)
		}
	}
	if s := c.Stats(); s != (Stats{}) {
		t.Errorf("nil stats = %+v", s)
	}
}

// BenchmarkCacheHitParallel measures the hit path under contention:
// every goroutine cycles through 64 warm keys, so each op is one memory
// hit (lock, recency update, hit count). Run with -cpu 1,2 to compare
// the uncontended and contended cost.
func BenchmarkCacheHitParallel(b *testing.B) {
	const nkeys = 64
	c := New[int, int](nkeys)
	for i := 0; i < nkeys; i++ {
		if _, _, err := c.GetOrCompute(i, func() (int, error) { return i, nil }); err != nil {
			b.Fatal(err)
		}
	}
	compute := func() (int, error) { return 0, errors.New("unexpected miss") }
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, out, _ := c.GetOrCompute(i%nkeys, compute); out != OutcomeHit {
				b.Errorf("outcome %v, want hit", out)
				return
			}
			i++
		}
	})
}

// TestPanickingComputeReleasesKey panics in a compute while another
// caller waits on it: the panic must reach the caller that ran the
// compute, the waiter must wake with an error, and the next call for the
// key must compute again instead of waiting forever on a dead compute.
func TestPanickingComputeReleasesKey(t *testing.T) {
	c := New[int, int](4)
	const k = 1
	release := make(chan struct{})
	recovered := make(chan any, 1)
	go func() {
		defer func() { recovered <- recover() }()
		c.GetOrCompute(k, func() (int, error) {
			<-release
			panic("boom")
		})
	}()
	for !computing(c, k) {
		runtime.Gosched()
	}
	waited := make(chan error, 1)
	go func() {
		_, out, err := c.GetOrCompute(k, func() (int, error) { return 0, errors.New("waiter computed") })
		if out != OutcomeWait {
			err = errors.New("waiter did not wait on the compute")
		}
		waited <- err
	}()
	for c.Stats().Waits == 0 {
		runtime.Gosched()
	}
	close(release)

	timeout := time.After(5 * time.Second)
	select {
	case p := <-recovered:
		if p != "boom" {
			t.Errorf("computing caller recovered %v, want the compute's panic", p)
		}
	case <-timeout:
		t.Fatal("the panic never reached the computing caller")
	}
	select {
	case err := <-waited:
		if err != errComputePanicked {
			t.Errorf("waiter got %v, want %v", err, errComputePanicked)
		}
	case <-timeout:
		t.Fatal("waiter still blocked on the panicked compute")
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		v, out, err := c.GetOrCompute(k, func() (int, error) { return 7, nil })
		if v != 7 || out != OutcomeMiss || err != nil {
			t.Errorf("after the panic: %d, %v, %v; want a fresh compute of 7", v, out, err)
		}
	}()
	select {
	case <-done:
	case <-timeout:
		t.Fatal("the key stayed in flight after its compute panicked")
	}
	if s := c.Stats(); s.Misses != 2 || s.Hits != 1 || s.Entries != 1 {
		t.Errorf("stats = %+v, want 2 misses, 1 hit (the wait), 1 entry", s)
	}
}

// computing reports whether a compute for k is in flight.
func computing[K comparable, V any](c *Cache[K, V], k K) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.inflight[k]
	return ok
}
