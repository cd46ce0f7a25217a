package obs

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"binpart/internal/cache"
)

// traceWithSpans builds a recorder with n synthetic spans and returns
// its trace-file form.
func traceWithSpans(t *testing.T, trace string, n int, outcome cache.Outcome) *Recorder {
	t.Helper()
	rec := NewRecorder()
	rec.SetTrace(trace)
	sc := rec.Scope("fir", 0, 0)
	for i := 0; i < n; i++ {
		sp := sc.Start(StageSim)
		sp.SetOutcome(outcome)
		sp.End()
	}
	return rec
}

// TestTraceGzipRoundTrip is the satellite contract: a .gz trace path
// compresses transparently, and ReadTrace recovers the exact stream —
// header, spans, and the cache trailer.
func TestTraceGzipRoundTrip(t *testing.T) {
	for _, name := range []string{"t.jsonl", "t.jsonl.gz"} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), name)
			tw, err := CreateTrace(path)
			if err != nil {
				t.Fatal(err)
			}
			rec := traceWithSpans(t, "abc123", 4, cache.OutcomeMiss)
			rec.StreamTo(tw.Writer())
			// Re-emit the spans recorded before streaming started by
			// writing them through a fresh pass: StreamTo only mirrors
			// spans emitted after it, so emit live ones too.
			sc := rec.Scope("brev", 2, 1)
			sp := sc.Start(StageLift)
			sp.SetOutcome(cache.OutcomeHit)
			sp.End()
			rec.EmitCaches(map[string]cache.Stats{"sim": {Hits: 1, Misses: 4}})
			if err := rec.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := tw.Close(); err != nil {
				t.Fatal(err)
			}

			tf, err := ReadTrace(path)
			if err != nil {
				t.Fatal(err)
			}
			if tf.Trace != "abc123" || tf.EpochUnixUS == 0 {
				t.Errorf("header lost: %+v", tf)
			}
			if len(tf.Spans) != 1 {
				t.Fatalf("got %d streamed spans, want 1", len(tf.Spans))
			}
			sp0 := tf.Spans[0]
			if sp0.Stage != StageLift || sp0.Bench != "brev" || sp0.Level != 2 || sp0.Worker != 1 {
				t.Errorf("span lost fields: %+v", sp0)
			}
			if tf.Caches["sim"].Misses != 4 {
				t.Errorf("cache trailer lost: %+v", tf.Caches)
			}
		})
	}
}

// TestReconcileDetectsDrift: a trace whose span outcomes disagree with
// its cache accounting must fail Reconcile with the stage named.
func TestReconcileDetectsDrift(t *testing.T) {
	tf := &TraceFile{
		Trace: "run1",
		Spans: []SpanRecord{
			{Stage: StageSim, Cache: "hit"},
			{Stage: StageSim, Cache: "miss"},
		},
		Caches: map[string]cache.Stats{"sim": {Hits: 2, Misses: 1}},
	}
	err := tf.Reconcile()
	if err == nil || !strings.Contains(err.Error(), "sim") {
		t.Fatalf("drifted trace reconciled: %v", err)
	}
	tf.Caches["sim"] = cache.Stats{Hits: 1, Misses: 1}
	if err := tf.Reconcile(); err != nil {
		t.Fatalf("consistent trace failed: %v", err)
	}
	// The analyze stage reports under the "analysis" cache key.
	tf.Spans = append(tf.Spans, SpanRecord{Stage: StageAnalyze, Cache: "disk"})
	tf.Caches["analysis"] = cache.Stats{Hits: 1}
	if err := tf.Reconcile(); err != nil {
		t.Fatalf("analyze/analysis mapping broken: %v", err)
	}
	if (&TraceFile{}).Reconcile() == nil {
		t.Fatal("trace without accounting reconciled")
	}
}

// TestFormatStageTablePercentiles checks the -stats table renders the
// new percentile columns.
func TestFormatStageTablePercentiles(t *testing.T) {
	rec := NewRecorder()
	sc := rec.Scope("fir", 0, 0)
	sp := sc.Start(StageSim)
	time.Sleep(time.Millisecond)
	sp.End()
	table := rec.Table()
	for _, want := range []string{"p50(us)", "p90(us)", "p99(us)"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
	totals := rec.StageTotals()
	if totals[0].P99US < 1000 {
		t.Errorf("1ms span reports p99 %dus", totals[0].P99US)
	}
}
