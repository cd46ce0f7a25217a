package exper

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"binpart/internal/binimg"
	"binpart/internal/core"
	"binpart/internal/obs"
)

// TestFanOutJoinsConcurrentErrors is the regression test for the
// first-error-only bug: when several jobs fail before the abort
// propagates, every failure must appear in the returned error, not just
// the one that crossed the finish line first.
func TestFanOutJoinsConcurrentErrors(t *testing.T) {
	// Two workers, two jobs, and a barrier holding both jobs in flight
	// until each has started: neither failure can win the abort race
	// before the other job is already running, so both must be reported.
	var barrier sync.WaitGroup
	barrier.Add(2)
	_, err := fanOut(2, 2, func(worker, i int) (int, error) {
		barrier.Done()
		barrier.Wait()
		return 0, fmt.Errorf("job %d exploded", i)
	})
	if err == nil {
		t.Fatal("concurrent failures produced no error")
	}
	for i := 0; i < 2; i++ {
		if want := fmt.Sprintf("job %d exploded", i); !strings.Contains(err.Error(), want) {
			t.Errorf("joined error missing %q: %v", want, err)
		}
	}
}

// TestFanOutSkippedJobsNotJoined checks the complement: jobs abandoned
// after the abort flag was raised must not pollute the joined error, and
// a successful fan-out returns nil (not a joined slice of nils).
func TestFanOutSkippedJobsNotJoined(t *testing.T) {
	// Serial pool: job 0 fails, so jobs 1..3 are never attempted.
	_, err := fanOut(1, 4, func(worker, i int) (int, error) {
		if i == 0 {
			return 0, errors.New("first failure")
		}
		t.Errorf("job %d ran after failure in the serial path", i)
		return i, nil
	})
	if err == nil || strings.Contains(err.Error(), "skipped") {
		t.Errorf("serial error = %v", err)
	}

	out, err := fanOut(4, 8, func(worker, i int) (int, error) { return i, nil })
	if err != nil {
		t.Fatalf("clean fan-out errored: %v", err)
	}
	for i, v := range out {
		if v != i {
			t.Errorf("out[%d] = %d", i, v)
		}
	}
}

// TestTracedSweepMatchesUntraced pins the tentpole's observer contract:
// attaching a Recorder to an 8-worker sweep must not change a byte of the
// rendered table. The recorder only watches.
func TestTracedSweepMatchesUntraced(t *testing.T) {
	plain, err := NewRunner(8, core.NewCaches()).Table3()
	if err != nil {
		t.Fatal(err)
	}

	traced := NewRunner(8, core.NewCaches())
	traced.Obs = obs.NewRecorder()
	got, err := traced.Table3()
	if err != nil {
		t.Fatal(err)
	}
	if got.Format() != plain.Format() {
		t.Errorf("tracing changed the table:\n--- untraced ---\n%s--- traced ---\n%s", plain.Format(), got.Format())
	}
	if len(traced.Obs.StageTotals()) == 0 {
		t.Error("traced run recorded no spans")
	}
}

// stageCounts aggregates a recorder's spans into stage -> span count.
func stageCounts(rec *obs.Recorder) map[string]int {
	out := map[string]int{}
	for _, st := range rec.StageTotals() {
		out[st.Stage] = st.Spans
	}
	return out
}

// TestParallelSpanCountsMatchSerial checks that fan-out width never
// changes what the trace claims happened in a full default regeneration:
// every experiment's distinct points run as one job each, a stage
// executes once per distinct cache key no matter how many workers race
// (coalesced waiters record wait spans, not duplicate computes), so the
// per-stage span counts at -j 8 equal a serial run's, and the spans
// reconcile with the cache counters at both widths. The analysis cache
// misses once per distinct (image, analysis options) pair; a hit means
// two distinct points compiled to one image (fir's -O1 and -O2 binaries
// are byte-identical), never that two experiments analyzed one point.
func TestParallelSpanCountsMatchSerial(t *testing.T) {
	plans := make([]plan[string], len(Experiments))
	for i, e := range Experiments {
		plans[i] = e.plan()
	}
	pts, _ := distinct(plans)
	// T1's 20 -O1 points (which T2, T4, F1 and A1 read too), T3's 12 at
	// the other levels, A2's 20 off its "full" row, E1's 2 paper-flow ones.
	if len(pts) != 54 {
		t.Errorf("%d distinct points, want 54", len(pts))
	}
	type analysisKey struct {
		img  binimg.Digest
		opts core.Options
	}
	keys := map[analysisKey]bool{}
	for _, pt := range pts {
		img, err := pt.bench.Compile(pt.level)
		if err != nil {
			t.Fatal(err)
		}
		keys[analysisKey{img.Key(), core.AnalysisOptions(pt.opts)}] = true
	}

	var want map[string]int
	for _, workers := range []int{1, 8} {
		caches := core.NewCaches()
		r := NewRunner(workers, caches)
		r.Obs = obs.NewRecorder()
		if _, err := r.Regenerate(Experiments); err != nil {
			t.Fatal(err)
		}
		stats := caches.StatsMap()
		if err := r.Obs.Reconcile(stats); err != nil {
			t.Errorf("-j %d: %v", workers, err)
		}
		got := stageCounts(r.Obs)
		if got[obs.StageJob] != len(pts) {
			t.Errorf("-j %d: %d job spans, want one per distinct point (%d)", workers, got[obs.StageJob], len(pts))
		}
		a := stats["analysis"]
		if a.Misses != uint64(len(keys)) || a.Hits != uint64(len(pts)-len(keys)) {
			t.Errorf("-j %d: analysis cache %d misses + %d hits, want %d + %d (distinct analyses + points sharing an image)",
				workers, a.Misses, a.Hits, len(keys), len(pts)-len(keys))
		}
		if want == nil {
			want = got
		} else if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("per-stage span counts differ: serial %v, -j %d %v", want, workers, got)
		}
	}
}

// TestManifestReconciliation is the unified-accounting property test: on
// a shared-recorder 8-worker sweep, the manifest's cache section must be
// exactly the -stats snapshot, its span total must equal the recorder's,
// and per stage the span outcomes must sum to the corresponding cache's
// counters (hits = hit + wait spans, misses = miss spans). Its collector section must count the sweep's allocations and
// a forced cycle. Run under -race this doubles as the recorder's
// concurrency test.
func TestManifestReconciliation(t *testing.T) {
	gc0 := obs.ReadGC()
	caches := core.NewCaches()
	r := NewRunner(8, caches)
	r.Obs = obs.NewRecorder()
	if _, err := r.Table3(); err != nil {
		t.Fatal(err)
	}

	statsMap := caches.StatsMap()
	m := obs.BuildManifest("test", nil, 8, r.Obs, statsMap)
	runtime.GC()
	m.GC = obs.ReadGC().Sub(gc0)
	if m.GC.AllocBytes == 0 || m.GC.Cycles == 0 {
		t.Errorf("manifest gc = %+v, want allocated bytes and at least the forced cycle", m.GC)
	}

	if fmt.Sprint(m.Caches) != fmt.Sprint(statsMap) {
		t.Errorf("manifest caches %v != stats map %v", m.Caches, statsMap)
	}
	got := 0
	for _, n := range stageCounts(r.Obs) {
		got += n
	}
	if m.Spans != got {
		t.Errorf("manifest spans = %d, recorder has %d", m.Spans, got)
	}

	for _, st := range m.Stages {
		cacheName, ok := obs.CacheForStage[st.Stage]
		if !ok {
			continue // job/evaluate stages have no cache
		}
		s := statsMap[cacheName]
		if got, want := st.Hit+st.Wait, s.Hits; got != want {
			t.Errorf("%s: span hits %d (hit %d + wait %d) != cache %q hits %d",
				st.Stage, got, st.Hit, st.Wait, cacheName, want)
		}
		if got, want := st.Miss, s.Misses; got != want {
			t.Errorf("%s: span misses %d != cache %q misses %d",
				st.Stage, got, cacheName, want)
		}
	}
}

// TestCorpusReconciles runs a traced corpus cold, then warm, over one
// cache set: the reference-oracle sims record through core.Simulate like
// every other sim, so span outcomes must reconcile with the cache
// counters after each run.
func TestCorpusReconciles(t *testing.T) {
	caches := core.NewCaches()
	r := NewRunner(2, caches)
	r.Obs = obs.NewRecorder()
	for _, run := range []string{"cold", "warm"} {
		if _, err := r.Corpus(8, 1); err != nil {
			t.Fatal(err)
		}
		if err := r.Obs.Reconcile(caches.StatsMap()); err != nil {
			t.Errorf("%s corpus run: %v", run, err)
		}
	}
}

// TestMetricsScrapeDuringSweep renders the /metrics exposition from four
// scraper goroutines while an 8-worker sweep runs underneath it. Every
// scrape must be well-formed exposition text (scrapes see a live
// Recorder and live cache counters mid-mutation), and the final scrape
// must report the finished sweep's stage spans. Run under -race this is
// the lock-discipline test for the whole MetricsSources surface.
func TestMetricsScrapeDuringSweep(t *testing.T) {
	caches := core.NewCaches()
	r := NewRunner(8, caches)
	r.Obs = obs.NewRecorder()
	src := obs.MetricsSources{Rec: r.Obs, Caches: caches.StatsMap}

	scrape := func() string {
		var b strings.Builder
		obs.WriteMetrics(&b, src)
		return b.String()
	}

	done := make(chan struct{})
	var scrapers sync.WaitGroup
	for g := 0; g < 4; g++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				body := scrape()
				// Structural sanity on a mid-sweep snapshot: every
				// non-comment line is "name{labels} value".
				for _, line := range strings.Split(body, "\n") {
					if line == "" || strings.HasPrefix(line, "#") {
						continue
					}
					if !strings.HasPrefix(line, "binpart_") || len(strings.Fields(line)) != 2 {
						t.Errorf("malformed exposition line %q", line)
					}
				}
			}
		}()
	}

	if _, err := r.Table3(); err != nil {
		t.Fatal(err)
	}
	close(done)
	scrapers.Wait()

	final := scrape()
	for _, want := range []string{
		`binpart_stage_spans_total{stage="sim"}`,
		`binpart_stage_latency_seconds{stage="sim",quantile="0.99"}`,
		`binpart_cache_hits_total{cache="sim"}`,
	} {
		if !strings.Contains(final, want) {
			t.Errorf("final scrape missing %q", want)
		}
	}
}
