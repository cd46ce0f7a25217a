package obs

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
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

// TraceFile is one parsed trace stream: the header tags, every span, and
// the cache-accounting trailer (nil when the producer emitted none).
type TraceFile struct {
	Trace       string
	EpochUnixUS int64
	Spans       []SpanRecord
	Caches      map[string]cache.Stats
}

// ReadTrace parses a trace file written by StreamTo/EmitCaches,
// transparently ungzipping when the path ends in ".gz". Unknown meta
// kinds are skipped, so readers stay compatible with newer producers.
func ReadTrace(path string) (*TraceFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var r io.Reader = f
	if strings.HasSuffix(path, ".gz") {
		gz, err := gzip.NewReader(f)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		defer gz.Close()
		r = gz
	}
	tf, err := parseTrace(r)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return tf, nil
}

func parseTrace(r io.Reader) (*TraceFile, error) {
	tf := &TraceFile{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		// Meta lines carry a non-empty "meta" field; everything else is
		// a span. Peek cheaply before committing to a schema.
		var probe struct {
			Meta string `json:"meta"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			return nil, fmt.Errorf("bad trace line: %w", err)
		}
		if probe.Meta == "" {
			var sp SpanRecord
			if err := json.Unmarshal(line, &sp); err != nil {
				return nil, fmt.Errorf("bad span line: %w", err)
			}
			tf.Spans = append(tf.Spans, sp)
			continue
		}
		var meta TraceMeta
		if err := json.Unmarshal(line, &meta); err != nil {
			return nil, fmt.Errorf("bad meta line: %w", err)
		}
		switch meta.Meta {
		case MetaTrace:
			tf.Trace = meta.Trace
			tf.EpochUnixUS = meta.EpochUnixUS
		case MetaCaches:
			tf.Caches = meta.Caches
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return tf, nil
}

// CacheForStage maps a span stage to the key its stage cache reports
// under in Stats maps ("" for stages with no cache). The analysis cache
// predates the span layer and kept its longer name.
var CacheForStage = map[string]string{
	StageAnalyze: "analysis",
	StageCompile: "compile",
	StageSim:     "sim",
	StageLift:    "lift",
	StageSynth:   "synth",
}

// Reconcile checks the trace's span outcomes against its cache
// accounting: for every stage with a cache, spans tagged hit+wait+disk
// must equal the cache's Hits, and miss+corrupt its Misses. A mismatch
// means spans or stats were dropped in flight.
func (tf *TraceFile) Reconcile() error {
	if tf.Caches == nil {
		return fmt.Errorf("reconcile: trace has no cache accounting trailer")
	}
	totals := AggregateRecords(tf.Spans)
	var problems []string
	for _, st := range totals {
		key := CacheForStage[st.Stage]
		if key == "" {
			continue
		}
		cs, ok := tf.Caches[key]
		if !ok {
			continue
		}
		if got, want := st.Hit+st.Wait+st.Disk, cs.Hits; got != want {
			problems = append(problems, fmt.Sprintf("%s: span hits %d != cache hits %d", st.Stage, got, want))
		}
		if got, want := st.Miss+st.Corrupt, cs.Misses; got != want {
			problems = append(problems, fmt.Sprintf("%s: span misses %d != cache misses %d", st.Stage, got, want))
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("reconcile: %s", strings.Join(problems, "; "))
	}
	return nil
}
