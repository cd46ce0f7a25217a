package obs

import (
	"fmt"
	"runtime"
	"runtime/metrics"
)

// GCStats is the garbage collector's work over a run: the change in
// three runtime counters between two samples.
type GCStats struct {
	// Cycles counts completed GC cycles (/gc/cycles/total:gc-cycles).
	Cycles uint64 `json:"cycles"`
	// AllocBytes counts heap bytes allocated (runtime.MemStats'
	// TotalAlloc). /gc/heap/allocs:bytes leaves out the objects in spans
	// a P still caches, a large share of a run without a cycle;
	// ReadMemStats flushes those spans before it counts.
	AllocBytes uint64 `json:"alloc_bytes"`
	// CPUSeconds is the runtime's estimate of CPU time spent collecting
	// (/cpu/classes/gc/total:cpu-seconds).
	CPUSeconds float64 `json:"cpu_seconds"`
}

var gcMetrics = [...]string{
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

// ReadGC samples the collector's counters since the process started. It
// stops the world for ReadMemStats, so it is for the ends of a run, not
// for a hot path.
func ReadGC() GCStats {
	var s [len(gcMetrics)]metrics.Sample
	for i, name := range gcMetrics {
		s[i].Name = name
	}
	metrics.Read(s[:])
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return GCStats{
		Cycles:     s[0].Value.Uint64(),
		AllocBytes: ms.TotalAlloc,
		CPUSeconds: s[1].Value.Float64(),
	}
}

// Sub returns the work done between the sample start and g.
func (g GCStats) Sub(start GCStats) GCStats {
	return GCStats{
		Cycles:     g.Cycles - start.Cycles,
		AllocBytes: g.AllocBytes - start.AllocBytes,
		CPUSeconds: g.CPUSeconds - start.CPUSeconds,
	}
}

// String renders the -stats line.
func (g GCStats) String() string {
	return fmt.Sprintf("gc: %d cycles, %.2f MB allocated, %.2f ms GC CPU\n",
		g.Cycles, float64(g.AllocBytes)/1e6, 1e3*g.CPUSeconds)
}
