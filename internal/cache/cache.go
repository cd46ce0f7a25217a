// Package cache provides memoization for the partitioning pipeline.
// Every cached stage of the flow — MicroC compilation, profiling
// simulation, decompilation + decompiler optimization, and the analysis
// assembled from them — is a pure function of its inputs, so each stage
// result can be keyed by exactly those inputs and reused across
// experiment sweeps (the O-level sweep recompiles the same four sources
// sixteen times; the area sweep re-lifts the same twenty binaries eleven
// times).
//
// A Cache is a bounded in-memory LRU with per-key in-flight coalescing
// (concurrent GetOrCompute calls for the same key compute once), hit /
// miss / eviction counters. Its key is any comparable Go value, typically
// a struct holding a stage's inputs (or a digest of the large ones), so
// Go's == compares every field: changing any input produces a different
// key and the stale entry simply ages out of the LRU. A key must equal
// itself, so it holds no NaN.
package cache

import (
	"container/list"
	"errors"
	"sync"
	"sync/atomic"
)

// Stats is a point-in-time counter snapshot. The aggregate Hits counter
// includes coalesced waits, so the accounting reconciles exactly:
// Hits = memory hits + Waits, and Hits + Misses = total lookups.
type Stats struct {
	Hits      uint64 `json:"hits"`    // lookups served without computing, including waits
	Misses    uint64 `json:"misses"`  // full computes
	Evictions uint64 `json:"evict"`   // LRU entries dropped at capacity
	Waits     uint64 `json:"waits"`   // GetOrCompute calls that blocked on another caller's in-flight compute
	Entries   int    `json:"entries"` // current in-memory entry count
}

// Outcome classifies how one cache lookup was served. It is the per-call
// counterpart of the aggregate Stats counters: observability spans record
// an Outcome per stage execution, and summing span outcomes per stage
// reconciles with the stage cache's Stats (hits = hit + wait,
// misses = miss).
type Outcome uint8

const (
	// OutcomeNone marks uncached work: no cache was attached, so the
	// value was computed directly and no counter moved.
	OutcomeNone Outcome = iota
	// OutcomeHit is a memory hit.
	OutcomeHit
	// OutcomeMiss is a full compute.
	OutcomeMiss
	// OutcomeWait is a coalesced wait on another caller's in-flight
	// compute (counted as a hit in Stats, plus the Waits counter).
	OutcomeWait
)

func (o Outcome) String() string {
	switch o {
	case OutcomeHit:
		return "hit"
	case OutcomeMiss:
		return "miss"
	case OutcomeWait:
		return "wait"
	}
	return ""
}

type entry[K comparable, V any] struct {
	key K
	val V
}

type inflightCall[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Cache is a bounded, concurrency-safe LRU behind one mutex. A nil *Cache is valid and caches nothing: GetOrCompute always
// computes (OutcomeNone). That lets call sites thread an optional cache
// without branching.
type Cache[K comparable, V any] struct {
	capacity int

	mu       sync.Mutex
	ll       *list.List             // front = most recently used
	items    map[K]*list.Element    // key -> *entry
	inflight map[K]*inflightCall[V] // keys being computed right now

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
	waits     atomic.Uint64
}

// New creates a cache bounded to capacity entries (minimum 1).
func New[K comparable, V any](capacity int) *Cache[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache[K, V]{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[K]*list.Element),
		inflight: make(map[K]*inflightCall[V]),
	}
}

// GetOrCompute returns the value for k, computing it with fn on a miss,
// and reports how the call was served so observability spans can
// attribute cache behavior per stage execution. It is the cache's only
// lookup. Concurrent calls for the same key coalesce: one caller
// computes, the rest wait and share the result (a waiter counts as a
// hit, and also as a wait — the contention-visible counter). Errors are
// not cached: the waiters of a failed compute share its error, and the
// next call for the key computes again. A compute that panics fails the
// same way: its waiters get an error, and the panic goes on in the
// caller that ran it.
//
// The compute runs outside the cache lock: the caller first registers
// itself in the inflight map, which gives it per-key exclusion, so a
// slow compute never blocks unrelated keys.
func (c *Cache[K, V]) GetOrCompute(k K, fn func() (V, error)) (V, Outcome, error) {
	if c == nil {
		v, err := fn()
		return v, OutcomeNone, err
	}
	c.mu.Lock()
	if e, ok := c.items[k]; ok {
		c.ll.MoveToFront(e)
		v := e.Value.(*entry[K, V]).val
		c.mu.Unlock()
		c.hits.Add(1)
		return v, OutcomeHit, nil
	}
	if fl, ok := c.inflight[k]; ok {
		c.mu.Unlock()
		c.hits.Add(1)
		c.waits.Add(1)
		<-fl.done
		if fl.err != nil {
			var zero V
			return zero, OutcomeWait, fl.err
		}
		return fl.val, OutcomeWait, nil
	}
	fl := &inflightCall[V]{done: make(chan struct{}), err: errComputePanicked}
	c.inflight[k] = fl
	c.mu.Unlock()
	defer c.settle(k, fl)
	fl.val, fl.err = fn()
	return fl.val, OutcomeMiss, fl.err
}

// errComputePanicked is what the waiters of a compute that panicked get.
var errComputePanicked = errors.New("cache: compute panicked")

// settle ends k's registered inflight call fl once its compute returns or
// panics (leaving fl.err at errComputePanicked): it counts the miss,
// unregisters k, keeps the value unless the compute failed, and wakes
// the waiters.
func (c *Cache[K, V]) settle(k K, fl *inflightCall[V]) {
	c.misses.Add(1)
	c.mu.Lock()
	delete(c.inflight, k)
	if fl.err == nil {
		// k cannot be resident: it was absent when fl registered, and
		// until now every other caller for k waited on fl.
		c.items[k] = c.ll.PushFront(&entry[K, V]{key: k, val: fl.val})
		for c.ll.Len() > c.capacity {
			back := c.ll.Back()
			c.ll.Remove(back)
			delete(c.items, back.Value.(*entry[K, V]).key)
			c.evictions.Add(1)
		}
	}
	c.mu.Unlock()
	close(fl.done)
}

// Stats returns a snapshot of the counters.
func (c *Cache[K, V]) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	s := Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Waits:     c.waits.Load(),
	}
	c.mu.Lock()
	s.Entries = c.ll.Len()
	c.mu.Unlock()
	return s
}
