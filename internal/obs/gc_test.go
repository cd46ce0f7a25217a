package obs

import (
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
)

// gcSink keeps TestReadGCCountsCachedSpans' objects reachable, so the
// compiler cannot place them on the stack.
var gcSink [][]byte

// TestReadGCCountsCachedSpans allocates one object in each of many small
// size classes on GOMAXPROCS goroutines with the collector off, so that
// every object sits in a span some P still caches, and requires
// AllocBytes to cover their sizes. A counter that skips cached spans
// (runtime/metrics' /gc/heap/allocs:bytes) reads well short here; a run
// without a GC cycle would print such a figure in -stats and the
// manifest.
func TestReadGCCountsCachedSpans(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var sizes []int
	want := 0
	for n := 16; n <= 32<<10; n += n/8 + 16 {
		sizes = append(sizes, n)
		want += n
	}
	procs := runtime.GOMAXPROCS(0)
	want *= procs
	objs := make([][][]byte, procs)

	start := ReadGC()
	var wg sync.WaitGroup
	for g := range objs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, n := range sizes {
				objs[g] = append(objs[g], make([]byte, n))
			}
		}()
	}
	wg.Wait()
	got := ReadGC().Sub(start)
	for _, o := range objs {
		gcSink = append(gcSink, o...)
	}
	gcSink = nil

	if got.Cycles != 0 {
		t.Fatalf("%d GC cycles ran with the collector off", got.Cycles)
	}
	if got.AllocBytes < uint64(want) {
		t.Errorf("AllocBytes = %d, want at least the %d bytes of %d objects in %d size classes on %d goroutines",
			got.AllocBytes, want, len(sizes)*procs, len(sizes), procs)
	}
}
