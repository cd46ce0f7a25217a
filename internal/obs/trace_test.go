package obs

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"binpart/internal/cache"
)

// TestTraceGzipRoundTrip: a .gz trace path compresses transparently, and
// the file holds the exact stream — header, spans emitted after StreamTo,
// and the cache trailer.
func TestTraceGzipRoundTrip(t *testing.T) {
	for _, name := range []string{"t.jsonl", "t.jsonl.gz"} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), name)
			tw, err := CreateTrace(path)
			if err != nil {
				t.Fatal(err)
			}
			rec := NewRecorder()
			// Spans ended before StreamTo are counted but not streamed.
			sc := rec.Scope("fir", 0, 0)
			for i := 0; i < 4; i++ {
				sp := sc.Start(StageSim)
				sp.SetOutcome(cache.OutcomeMiss)
				sp.End()
			}
			rec.StreamTo(tw.Writer())
			sp := rec.Scope("brev", 2, 1).Start(StageLift)
			sp.SetOutcome(cache.OutcomeHit)
			sp.End()
			rec.EmitCaches(map[string]cache.Stats{"sim": {Hits: 1, Misses: 4}})
			if err := rec.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := tw.Close(); err != nil {
				t.Fatal(err)
			}

			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			var r io.Reader = f
			if strings.HasSuffix(path, ".gz") {
				gz, err := gzip.NewReader(f)
				if err != nil {
					t.Fatal(err)
				}
				defer gz.Close()
				r = gz
			}
			var (
				header  TraceMeta
				trailer TraceMeta
				spans   []SpanRecord
			)
			lines := bufio.NewScanner(r)
			for lines.Scan() {
				var meta TraceMeta
				if err := json.Unmarshal(lines.Bytes(), &meta); err != nil {
					t.Fatalf("bad line %q: %v", lines.Text(), err)
				}
				switch meta.Meta {
				case MetaTrace:
					header = meta
				case MetaCaches:
					trailer = meta
				default:
					var sr SpanRecord
					if err := json.Unmarshal(lines.Bytes(), &sr); err != nil {
						t.Fatalf("bad span line %q: %v", lines.Text(), err)
					}
					spans = append(spans, sr)
				}
			}
			if err := lines.Err(); err != nil {
				t.Fatal(err)
			}
			if header.Trace != rec.TraceID() || header.EpochUnixNS == 0 {
				t.Errorf("header lost: %+v", header)
			}
			if len(spans) != 1 {
				t.Fatalf("got %d streamed spans, want 1", len(spans))
			}
			sp0 := spans[0]
			if sp0.Stage != StageLift || sp0.Bench != "brev" || sp0.Level != 2 || sp0.Worker != 1 || sp0.Cache != "hit" {
				t.Errorf("span lost fields: %+v", sp0)
			}
			if trailer.Caches["sim"].Misses != 4 {
				t.Errorf("cache trailer lost: %+v", trailer.Caches)
			}
		})
	}
}

// TestReconcileDetectsDrift: span outcomes that disagree with the cache
// accounting must fail Reconcile with the stage named.
func TestReconcileDetectsDrift(t *testing.T) {
	rec := NewRecorder()
	sc := rec.Scope("fir", 0, 0)
	for _, o := range []cache.Outcome{cache.OutcomeHit, cache.OutcomeMiss} {
		sp := sc.Start(StageSim)
		sp.SetOutcome(o)
		sp.End()
	}
	caches := map[string]cache.Stats{"sim": {Hits: 2, Misses: 1}}
	err := rec.Reconcile(caches)
	if err == nil || !strings.Contains(err.Error(), "sim") {
		t.Fatalf("drifted counts reconciled: %v", err)
	}
	caches["sim"] = cache.Stats{Hits: 1, Misses: 1}
	if err := rec.Reconcile(caches); err != nil {
		t.Fatalf("consistent counts failed: %v", err)
	}
	// The analyze stage reports under the "analysis" cache key.
	sp := sc.Start(StageAnalyze)
	sp.SetOutcome(cache.OutcomeHit)
	sp.End()
	caches["analysis"] = cache.Stats{Hits: 1}
	if err := rec.Reconcile(caches); err != nil {
		t.Fatalf("analyze/analysis mapping broken: %v", err)
	}
	if rec.Reconcile(nil) == nil {
		t.Fatal("recorder without accounting reconciled")
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
