// Package freelist keeps per-call working memory between calls: the
// cold stages' workspaces (compile, decompile, dopt, loop finding,
// synthesis, simulation, analysis and evaluation) and the daemon's
// request buffers. A regeneration then allocates little
// beyond what it returns or caches.
//
// A List is the one reuse mechanism those stages share. Unlike a
// sync.Pool, the garbage collector never empties it, and it is bounded:
// it holds at most GOMAXPROCS entries (as the process started), one per
// call that can run at once, so a long-lived process retains at most
// that many workspaces per stage. Reuse is invisible in results: a stage
// fully resets whatever it takes from its list, and nothing a call
// returns or caches may alias a workspace it gives back.
package freelist

import (
	"runtime"
	"sync"
)

// List is a bounded LIFO free list of *T. The zero value is empty and
// ready to use.
type List[T any] struct {
	mu   sync.Mutex
	free []*T
}

// Get returns the workspace put back most recently, or a new zero T when
// the list is empty. The caller must reset what it reads.
func (l *List[T]) Get() *T {
	l.mu.Lock()
	n := len(l.free)
	if n == 0 {
		l.mu.Unlock()
		return new(T)
	}
	x := l.free[n-1]
	l.free[n-1] = nil
	l.free = l.free[:n-1]
	l.mu.Unlock()
	return x
}

// maxEntries is GOMAXPROCS as the process started. It is read once:
// runtime.GOMAXPROCS takes the scheduler's lock, and Put runs on every
// warm daemon request.
var maxEntries = runtime.GOMAXPROCS(0)

// Put gives x back for a later Get. When the list already holds
// GOMAXPROCS entries, x is dropped for the collector. The caller must
// not use x, or anything it still references, after Put.
func (l *List[T]) Put(x *T) {
	l.mu.Lock()
	if len(l.free) < maxEntries {
		l.free = append(l.free, x)
	}
	l.mu.Unlock()
}

// Resize returns s with length n, reusing its array when it is large
// enough: the way a workspace's tables are sized for the next call. The
// contents are not cleared.
func Resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
