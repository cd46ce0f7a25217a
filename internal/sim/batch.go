// Batched multi-core simulation. Images are immutable and each job gets
// its own Machine, so a batch shares no mutable state at all — RunBatch
// just fans jobs out over a worker pool and fills a result slice in
// order.
package sim

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"binpart/internal/binimg"
)

// BatchJob is one independent simulation: an image plus its config.
type BatchJob struct {
	Img *binimg.Image
	Cfg Config
}

// BatchResult is one job's outcome and its wall time.
type BatchResult struct {
	Res Result
	Err error
	Dur time.Duration
}

// RunBatch executes every job and returns results in job order. workers
// <= 0 means GOMAXPROCS. Job errors land in the corresponding
// BatchResult — the batch itself never fails, so callers can triage
// per-job.
func RunBatch(jobs []BatchJob, workers int) []BatchResult {
	results := make([]BatchResult, len(jobs))
	if len(jobs) == 0 {
		return results
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				start := time.Now()
				res, err := Execute(jobs[i].Img, jobs[i].Cfg)
				results[i] = BatchResult{Res: res, Err: err, Dur: time.Since(start)}
			}
		}()
	}
	wg.Wait()
	return results
}
