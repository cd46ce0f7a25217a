package obs

import (
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"strings"

	"binpart/internal/cache"
)

// TraceWriter is the sink behind -trace: a file, gzip-compressed when the
// path ends in ".gz". Stream spans
// into Writer(), then Close — which flushes every layer and reports the
// first error, so a full disk surfaces as a nonzero exit instead of a
// silently truncated trace.
type TraceWriter struct {
	f  *os.File
	gz *gzip.Writer
	w  io.Writer
}

// CreateTrace opens path for trace output, stacking a gzip layer when the
// path ends in ".gz".
func CreateTrace(path string) (*TraceWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	tw := &TraceWriter{f: f, w: f}
	if strings.HasSuffix(path, ".gz") {
		tw.gz = gzip.NewWriter(f)
		tw.w = tw.gz
	}
	return tw, nil
}

// Writer is the stream to hand to Recorder.StreamTo.
func (t *TraceWriter) Writer() io.Writer { return t.w }

// Close flushes the gzip layer (if any) and the file, reporting the
// first error.
func (t *TraceWriter) Close() error {
	var first error
	if t.gz != nil {
		if err := t.gz.Close(); err != nil {
			first = err
		}
	}
	if err := t.f.Close(); err != nil && first == nil {
		first = err
	}
	return first
}

// CacheForStage maps a span stage to the key its stage cache reports
// under in Stats maps; stages with no cache (job, lift, synth, evaluate)
// are absent. The analysis cache predates the span layer and kept its
// longer name.
var CacheForStage = map[string]string{
	StageAnalyze: "analysis",
	StageCompile: "compile",
	StageSim:     "sim",
}

// Reconcile checks the recorder's span outcomes against the cache
// accounting: for every stage with a cache, spans tagged hit+wait must
// equal the cache's Hits, and miss its Misses. A mismatch
// means spans or stats were dropped in flight.
func (r *Recorder) Reconcile(caches map[string]cache.Stats) error {
	if caches == nil {
		return fmt.Errorf("reconcile: no cache accounting")
	}
	var problems []string
	for _, st := range r.StageTotals() {
		key := CacheForStage[st.Stage]
		if key == "" {
			continue
		}
		cs, ok := caches[key]
		if !ok {
			continue
		}
		if got, want := st.Hit+st.Wait, cs.Hits; got != want {
			problems = append(problems, fmt.Sprintf("%s: span hits %d != cache hits %d", st.Stage, got, want))
		}
		if got, want := st.Miss, cs.Misses; got != want {
			problems = append(problems, fmt.Sprintf("%s: span misses %d != cache misses %d", st.Stage, got, want))
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("reconcile: %s", strings.Join(problems, "; "))
	}
	return nil
}
