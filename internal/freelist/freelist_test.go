package freelist

import (
	"sync"
	"testing"
)

// TestGetPutLIFO: Get hands back the workspace put back last, and a new
// zero one when the list is empty.
func TestGetPutLIFO(t *testing.T) {
	var l List[[]int]
	a, b := l.Get(), l.Get()
	if a == b || *a != nil || *b != nil {
		t.Fatal("an empty list must hand out distinct zero values")
	}
	l.Put(a)
	l.Put(b)
	if got := l.Get(); got != b {
		t.Error("Get did not return the last workspace put back")
	}
	if got := l.Get(); got != a {
		t.Error("Get did not return the earlier workspace second")
	}
	if len(l.free) != 0 {
		t.Errorf("len = %d after draining, want 0", len(l.free))
	}
}

// TestBoundedByGOMAXPROCS: the list keeps at most GOMAXPROCS (as the
// process started) workspaces, however many calls give one back,
// including concurrent ones.
func TestBoundedByGOMAXPROCS(t *testing.T) {
	var l List[int]
	n := maxEntries
	var wg sync.WaitGroup
	for i := 0; i < 4*n+3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.Put(l.Get())
			l.Put(new(int))
		}()
	}
	wg.Wait()
	if got := len(l.free); got > n {
		t.Errorf("len = %d, want at most GOMAXPROCS = %d", got, n)
	}
}
