// Package cache provides content-addressed memoization for the
// partitioning pipeline. Every stage of the flow — MicroC compilation,
// profiling simulation, decompilation + decompiler optimization, and
// behavioral synthesis — is a pure function of its inputs, so each stage
// result can be keyed by a stable hash of exactly those inputs and reused
// across experiment sweeps (the O-level sweep recompiles the same four
// sources sixteen times; the area sweep re-lifts the same twenty binaries
// eleven times).
//
// A Cache is a bounded in-memory LRU with per-key in-flight coalescing
// (concurrent GetOrCompute calls for the same key compute once), hit /
// miss / eviction counters. Invalidation is purely structural: a key
// covers every byte of stage input, so changing any input byte produces a
// different key and the stale entry simply ages out of the LRU.
package cache

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"sync"
	"sync/atomic"

	"binpart/internal/freelist"
)

// Key is a 256-bit content address of one stage's inputs.
type Key [sha256.Size]byte

// String renders the key as lowercase hex.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// Hasher accumulates stage inputs into a Key. Every write is tagged with
// a type byte and, for variable-length data, a length prefix, so distinct
// input sequences cannot collide by concatenation ("ab"+"c" vs "a"+"bc").
//
// Hashers are kept between keys in a free list: Sum hands its Hasher
// back, and NewHasher resets the one it takes.
type Hasher struct {
	h   hash.Hash
	buf [10]byte
	str []byte // String's copy of its argument
	sum Key
}

var hashers freelist.List[Hasher]

// NewHasher starts a key for the named stage. The stage name separates
// key spaces: a compile key and a lift key over identical bytes differ.
func NewHasher(stage string) *Hasher {
	h := hashers.Get()
	if h.h == nil {
		h.h = sha256.New()
	} else {
		h.h.Reset()
	}
	h.String(stage)
	return h
}

func (h *Hasher) tag(t byte, n int) {
	h.buf[0] = t
	binary.LittleEndian.PutUint64(h.buf[1:9], uint64(n))
	h.h.Write(h.buf[:9])
}

// Bytes hashes a variable-length byte slice.
func (h *Hasher) Bytes(b []byte) *Hasher {
	h.tag('b', len(b))
	h.h.Write(b)
	return h
}

// String hashes a string.
func (h *Hasher) String(s string) *Hasher {
	h.tag('s', len(s))
	h.str = append(h.str[:0], s...)
	h.h.Write(h.str)
	return h
}

// Int hashes a signed integer.
func (h *Hasher) Int(v int64) *Hasher { return h.Uint64(uint64(v)) }

// Uint64 hashes an unsigned integer.
func (h *Hasher) Uint64(v uint64) *Hasher {
	h.buf[0] = 'u'
	binary.LittleEndian.PutUint64(h.buf[1:9], v)
	h.h.Write(h.buf[:9])
	return h
}

// Uint32 hashes a 32-bit word (addresses, machine words).
func (h *Hasher) Uint32(v uint32) *Hasher { return h.Uint64(uint64(v)) }

// Float64 hashes a float by bit pattern.
func (h *Hasher) Float64(v float64) *Hasher {
	h.buf[0] = 'f'
	binary.LittleEndian.PutUint64(h.buf[1:9], math.Float64bits(v))
	h.h.Write(h.buf[:9])
	return h
}

// Bool hashes a flag.
func (h *Hasher) Bool(v bool) *Hasher {
	b := byte(0)
	if v {
		b = 1
	}
	h.buf[0] = 't'
	h.buf[1] = b
	h.h.Write(h.buf[:2])
	return h
}

// Words hashes a machine-word slice (text sections) without copying into
// an intermediate buffer per element.
func (h *Hasher) Words(ws []uint32) *Hasher {
	h.tag('w', len(ws))
	var tmp [4]byte
	for _, w := range ws {
		binary.LittleEndian.PutUint32(tmp[:], w)
		h.h.Write(tmp[:])
	}
	return h
}

// Sum finalizes the key. The Hasher must not be used afterwards.
func (h *Hasher) Sum() Key {
	h.h.Sum(h.sum[:0])
	k := h.sum
	hashers.Put(h)
	return k
}

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

type entry[V any] struct {
	key Key
	val V
}

type inflightCall[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Cache is a bounded, concurrency-safe, content-addressed LRU behind one
// mutex. A nil *Cache is valid and caches nothing: GetOrCompute always
// computes (OutcomeNone). That lets call sites thread an optional cache
// without branching.
type Cache[V any] struct {
	capacity int

	mu       sync.Mutex
	ll       *list.List               // front = most recently used
	items    map[Key]*list.Element    // key -> *entry
	inflight map[Key]*inflightCall[V] // keys being computed right now

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
	waits     atomic.Uint64
}

// New creates a cache bounded to capacity entries (minimum 1).
func New[V any](capacity int) *Cache[V] {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache[V]{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[Key]*list.Element),
		inflight: make(map[Key]*inflightCall[V]),
	}
}

// GetOrCompute returns the value for k, computing it with fn on a miss,
// and reports how the call was served so observability spans can
// attribute cache behavior per stage execution. It is the cache's only
// lookup. Concurrent calls for the same key coalesce: one caller
// computes, the rest wait and share the result (a waiter counts as a
// hit, and also as a wait — the contention-visible counter). Errors are
// not cached: the waiters of a failed compute share its error, and the
// next call for the key computes again.
//
// The compute runs outside the cache lock: the caller first registers
// itself in the inflight map, which gives it per-key exclusion, so a
// slow compute never blocks unrelated keys.
func (c *Cache[V]) GetOrCompute(k Key, fn func() (V, error)) (V, Outcome, error) {
	if c == nil {
		v, err := fn()
		return v, OutcomeNone, err
	}
	c.mu.Lock()
	if e, ok := c.items[k]; ok {
		c.ll.MoveToFront(e)
		v := e.Value.(*entry[V]).val
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
	fl := &inflightCall[V]{done: make(chan struct{})}
	c.inflight[k] = fl
	c.mu.Unlock()

	c.fill(fl, fn)

	c.mu.Lock()
	delete(c.inflight, k)
	if fl.err == nil {
		// k cannot be resident: it was absent when fl registered, and
		// until now every other caller for k waited on fl.
		c.items[k] = c.ll.PushFront(&entry[V]{key: k, val: fl.val})
		for c.ll.Len() > c.capacity {
			back := c.ll.Back()
			c.ll.Remove(back)
			delete(c.items, back.Value.(*entry[V]).key)
			c.evictions.Add(1)
		}
	}
	c.mu.Unlock()
	return fl.val, OutcomeMiss, fl.err
}

// fill computes a registered inflight call outside the cache lock, counts
// the miss and wakes the waiters.
func (c *Cache[V]) fill(fl *inflightCall[V], fn func() (V, error)) {
	fl.val, fl.err = fn()
	c.misses.Add(1)
	close(fl.done)
}

// Stats returns a snapshot of the counters.
func (c *Cache[V]) Stats() Stats {
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
