// Package obs is the pipeline's observability layer: stage-scoped spans,
// per-stage aggregation, run manifests, and a Prometheus-text metrics
// exposition.
//
// A Recorder collects Spans — one per pipeline stage execution, tagged
// with the benchmark, optimization level, worker id, wall time, cache
// outcome, and the stage's key counters — from the flow (core.Analyze /
// core.Evaluate), the stage caches, and the experiment
// executor. A nil *Recorder (and the nil *Scope it hands out) is the
// disabled fast path: every method returns immediately and allocates
// nothing, so threading observability through the hot pipeline costs a
// pointer test when it is off. The cmd/benchjson Stage* allocs/op gates
// hold the disabled path to zero overhead.
//
// The recorder keeps no spans: each one is folded into its stage's live
// StageTotal as it ends, and optionally streamed as JSONL (-trace), which
// is the only per-span record. The totals surface as a per-stage table at
// exit (-stats), in a run manifest written alongside sweep output
// (-manifest, see manifest.go), and as Prometheus text via WriteMetrics
// (metrics.go), which the bpartd daemon serves on its ops /metrics.
package obs

import (
	"bufio"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"binpart/internal/cache"
	"binpart/internal/obs/hist"
)

// Canonical stage names. The pipeline emits exactly these; the table and
// manifest render them in pipeline order.
const (
	StageJob      = "job"      // one sweep point end to end (executor)
	StageAnalyze  = "analyze"  // assembled platform-independent analysis
	StageCompile  = "compile"  // MicroC compilation
	StageSim      = "sim"      // profiling simulation
	StageLift     = "lift"     // decompile + decompiler optimizations
	StageSynth    = "synth"    // behavioral synthesis of one region
	StageEvaluate = "evaluate" // price + partition + platform evaluation
)

// stageRank orders known stages pipeline-first; unknown stages sort after
// by name, so the table and manifest are deterministic at any worker count.
var stageRank = map[string]int{
	StageJob:      0,
	StageAnalyze:  1,
	StageCompile:  2,
	StageSim:      3,
	StageLift:     4,
	StageSynth:    5,
	StageEvaluate: 6,
}

// Span is one recorded stage execution. The exported fields are the trace
// schema; Start/Dur are filled in by End.
type Span struct {
	rec   *Recorder
	begin time.Time

	Stage  string
	Bench  string // benchmark name or input path ("" if not attributable)
	Level  int    // compiler optimization level (-1 when unknown)
	Worker int    // executor worker id (0 for serial / unpooled work)
	// Start is the span's offset from the recorder's epoch; Dur its wall
	// time. Both are set by End.
	Start time.Duration
	Dur   time.Duration
	// Outcome is the stage-cache outcome (OutcomeNone for uncached work).
	Outcome cache.Outcome
	// Counters. Zero means "not applicable" and is omitted from the trace.
	Instrs   uint64 // instructions simulated
	Regions  uint64 // regions/functions recovered (lift), candidates (analyze)
	Selected uint64 // regions partitioned to hardware
}

// SetOutcome records the stage-cache outcome.
func (s *Span) SetOutcome(o cache.Outcome) {
	if s.rec == nil {
		return
	}
	s.Outcome = o
}

// SetInstrs records instructions simulated.
func (s *Span) SetInstrs(n uint64) {
	if s.rec == nil {
		return
	}
	s.Instrs = n
}

// SetRegions records regions recovered / candidates built.
func (s *Span) SetRegions(n uint64) {
	if s.rec == nil {
		return
	}
	s.Regions = n
}

// SetSelected records regions partitioned to hardware.
func (s *Span) SetSelected(n uint64) {
	if s.rec == nil {
		return
	}
	s.Selected = n
}

// End stamps the span's duration and emits it to the recorder. A span
// from a nil scope is a no-op.
func (s *Span) End() {
	if s.rec == nil {
		return
	}
	now := time.Now()
	s.Dur = now.Sub(s.begin)
	s.Start = s.begin.Sub(s.rec.epoch)
	s.rec.emit(*s)
}

// Scope carries the attribution attributes — benchmark, opt level, worker
// id — that every span under one sweep point shares. A nil *Scope is the
// disabled path; it starts inert spans and costs one pointer test.
type Scope struct {
	r      *Recorder
	bench  string
	level  int
	worker int
}

// Start opens a span for one stage execution under this scope.
func (s *Scope) Start(stage string) Span {
	if s == nil {
		return Span{}
	}
	return Span{
		rec:    s.r,
		begin:  time.Now(),
		Stage:  stage,
		Bench:  s.bench,
		Level:  s.level,
		Worker: s.worker,
	}
}

// Recorder folds a run's spans into per-stage totals (and the optional
// trace stream). Safe for concurrent use by every worker of a sweep; its
// memory is bounded by the number of distinct stages, not by uptime. The
// zero value is not usable; create with NewRecorder. A nil *Recorder is
// the disabled fast path.
type Recorder struct {
	epoch   time.Time
	traceID string

	mu        sync.Mutex
	totals    map[string]*StageTotal
	bw        *bufio.Writer
	enc       *json.Encoder
	streamErr error
}

// NewRecorder starts a recorder; its epoch is the creation time. It mints
// the run's random 128-bit trace ID, which tags the trace stream's header
// and the run manifest so the two artifacts of one run can be matched up.
func NewRecorder() *Recorder {
	return &Recorder{epoch: time.Now(), traceID: newTraceID(), totals: map[string]*StageTotal{}}
}

// newTraceID returns 128 random bits as lowercase hex.
func newTraceID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; fall back
		// to a time-derived ID rather than an empty one.
		return fmt.Sprintf("t%016x", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// TraceID returns the run's trace ID ("" for a nil recorder).
func (r *Recorder) TraceID() string {
	if r == nil {
		return ""
	}
	return r.traceID
}

// Scope returns span attribution for one sweep point. bench may be a
// benchmark name or an input path; level is the compiler optimization
// level (-1 when unknown); worker is the executor worker id. On a nil
// recorder it returns nil, the disabled scope.
func (r *Recorder) Scope(bench string, level, worker int) *Scope {
	if r == nil {
		return nil
	}
	return &Scope{r: r, bench: bench, level: level, worker: worker}
}

// StreamTo mirrors every span to w as one JSON object per line, in
// emission order (see SpanRecord for the schema). The stream opens with
// one TraceMeta header line carrying the trace ID and the absolute
// epoch that span start offsets count from. Call before the run starts;
// finish with Flush.
func (r *Recorder) StreamTo(w io.Writer) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.bw = bufio.NewWriter(w)
	r.enc = json.NewEncoder(r.bw)
	r.encodeLocked(TraceMeta{
		Meta:        MetaTrace,
		Trace:       r.traceID,
		EpochUnixNS: r.epoch.UnixNano(),
	})
	r.mu.Unlock()
}

// encodeLocked writes one JSON line to the stream, recording the first
// error. Callers hold r.mu.
func (r *Recorder) encodeLocked(v any) {
	if r.enc == nil {
		return
	}
	if err := r.enc.Encode(v); err != nil && r.streamErr == nil {
		r.streamErr = err
	}
}

// EmitCaches appends a cache-accounting meta line to the stream: the
// same per-stage counter snapshot the -stats table prints. Emitted as
// the trace's trailer, it lets any reader reconcile span counts against
// the cache counters without a side channel. No-op when not streaming.
func (r *Recorder) EmitCaches(stats map[string]cache.Stats) {
	if r == nil || stats == nil {
		return
	}
	r.mu.Lock()
	r.encodeLocked(TraceMeta{Meta: MetaCaches, Caches: stats})
	r.mu.Unlock()
}

// Flush drains the stream buffer and reports the first stream error.
func (r *Recorder) Flush() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.bw != nil {
		if err := r.bw.Flush(); err != nil && r.streamErr == nil {
			r.streamErr = err
		}
	}
	return r.streamErr
}

// Trace meta line kinds (the TraceMeta.Meta field).
const (
	// MetaTrace is the stream header: trace ID and epoch.
	MetaTrace = "trace"
	// MetaCaches is the accounting trailer: per-stage cache counters.
	MetaCaches = "caches"
)

// TraceMeta is the schema of the non-span lines in a trace stream. A
// line is a meta line iff its "meta" field is non-empty; everything else
// is a SpanRecord. Readers that predate a given meta kind skip it.
type TraceMeta struct {
	Meta        string                 `json:"meta"`
	Trace       string                 `json:"trace,omitempty"`
	EpochUnixNS int64                  `json:"epoch_unix_ns,omitempty"`
	Caches      map[string]cache.Stats `json:"caches,omitempty"`
}

// SpanRecord is the trace line schema. Times are integer nanoseconds,
// so a sub-microsecond span (a warm cache hit) keeps a nonzero
// duration, and integers stay trivial to load into anything.
type SpanRecord struct {
	Stage    string `json:"stage"`
	Bench    string `json:"bench,omitempty"`
	Level    int    `json:"opt"`
	Worker   int    `json:"worker"`
	StartNS  int64  `json:"start_ns"`
	DurNS    int64  `json:"dur_ns"`
	Cache    string `json:"cache,omitempty"`
	Instrs   uint64 `json:"instrs,omitempty"`
	Regions  uint64 `json:"regions,omitempty"`
	Selected uint64 `json:"selected,omitempty"`
}

// toRecord renders a span for the trace stream. Callers hold r.mu.
func (r *Recorder) toRecord(s *Span) SpanRecord {
	return SpanRecord{
		Stage:    s.Stage,
		Bench:    s.Bench,
		Level:    s.Level,
		Worker:   s.Worker,
		StartNS:  s.Start.Nanoseconds(),
		DurNS:    s.Dur.Nanoseconds(),
		Cache:    s.Outcome.String(),
		Instrs:   s.Instrs,
		Regions:  s.Regions,
		Selected: s.Selected,
	}
}

func (r *Recorder) emit(sp Span) {
	r.mu.Lock()
	st := r.totals[sp.Stage]
	if st == nil {
		st = &StageTotal{Stage: sp.Stage}
		r.totals[sp.Stage] = st
	}
	st.add(&sp)
	if r.enc != nil {
		r.encodeLocked(r.toRecord(&sp))
	}
	r.mu.Unlock()
}

// StageTotal aggregates every span of one stage: span count, total wall
// time, latency percentiles, cache outcomes, and counter sums. The
// percentiles are bucket upper bounds of the stage's fixed log-bucketed
// latency histogram (see internal/obs/hist), fed with each span's exact
// duration.
type StageTotal struct {
	Stage    string        `json:"stage"`
	Spans    int           `json:"spans"`
	WallUS   int64         `json:"wall_us"`
	P50US    int64         `json:"p50_us,omitempty"`
	P90US    int64         `json:"p90_us,omitempty"`
	P99US    int64         `json:"p99_us,omitempty"`
	Hit      uint64        `json:"hit"`
	Miss     uint64        `json:"miss"`
	Wait     uint64        `json:"wait"`
	Instrs   uint64        `json:"instrs,omitempty"`
	Regions  uint64        `json:"regions,omitempty"`
	Selected uint64        `json:"selected,omitempty"`
	Latency  hist.Snapshot `json:"-"`
}

// add folds one span into the totals. Wall time accumulates in the
// histogram's nanosecond sum; WallUS is derived from it only when
// StageTotals snapshots, so short spans are never truncated one by one.
func (st *StageTotal) add(sp *Span) {
	st.Spans++
	st.Latency.Observe(sp.Dur)
	switch sp.Outcome {
	case cache.OutcomeHit:
		st.Hit++
	case cache.OutcomeMiss:
		st.Miss++
	case cache.OutcomeWait:
		st.Wait++
	}
	st.Instrs += sp.Instrs
	st.Regions += sp.Regions
	st.Selected += sp.Selected
}

// StageTotals snapshots the per-stage totals in pipeline order (unknown
// stages after, by name). A nil recorder returns nil.
func (r *Recorder) StageTotals() []StageTotal {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]StageTotal, 0, len(r.totals))
	for _, st := range r.totals {
		out = append(out, *st)
	}
	r.mu.Unlock()

	for i := range out {
		st := &out[i]
		st.WallUS = int64(st.Latency.SumNs / uint64(time.Microsecond))
		st.P50US = st.Latency.QuantileUS(0.50)
		st.P90US = st.Latency.QuantileUS(0.90)
		st.P99US = st.Latency.QuantileUS(0.99)
	}
	sort.Slice(out, func(i, j int) bool {
		ri, iKnown := stageRank[out[i].Stage]
		rj, jKnown := stageRank[out[j].Stage]
		switch {
		case iKnown && jKnown:
			return ri < rj
		case iKnown != jKnown:
			return iKnown
		default:
			return out[i].Stage < out[j].Stage
		}
	})
	return out
}

// Table renders the per-stage aggregation as the -stats text table.
func (r *Recorder) Table() string {
	if r == nil {
		return "obs: disabled\n"
	}
	return FormatStageTable(r.StageTotals())
}

// FormatStageTable renders stage totals as the -stats text table.
func FormatStageTable(totals []StageTotal) string {
	var b strings.Builder
	b.WriteString("obs    stage     spans   wall(ms)  p50(us)  p90(us)  p99(us)    hit   miss   wait\n")
	var instrs, regions, selected uint64
	for _, st := range totals {
		fmt.Fprintf(&b, "obs    %-8s %6d %10.1f %8d %8d %8d %6d %6d %6d\n",
			st.Stage, st.Spans, float64(st.WallUS)/1e3,
			st.P50US, st.P90US, st.P99US,
			st.Hit, st.Miss, st.Wait)
		instrs += st.Instrs
		regions += st.Regions
		selected += st.Selected
	}
	fmt.Fprintf(&b, "obs    counters: %d instructions simulated, %d regions recovered, %d selected for hardware\n",
		instrs, regions, selected)
	return b.String()
}
