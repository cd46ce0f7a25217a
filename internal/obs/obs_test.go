package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"binpart/internal/cache"
	"binpart/internal/obs/hist"
)

// TestNilDisabledPath checks the whole disabled surface: a nil recorder
// hands out nil scopes, nil scopes start inert spans, and every method is
// a safe no-op.
func TestNilDisabledPath(t *testing.T) {
	var rec *Recorder
	sc := rec.Scope("bench", 2, 1)
	if sc != nil {
		t.Fatalf("nil recorder returned a live scope")
	}
	sp := sc.Start(StageSim)
	sp.SetOutcome(cache.OutcomeHit)
	sp.SetInstrs(1)
	sp.SetRegions(2)
	sp.SetSelected(3)
	sp.End()

	if got := rec.StageTotals(); got != nil {
		t.Errorf("nil recorder totals = %v", got)
	}
	if err := rec.Flush(); err != nil {
		t.Errorf("nil recorder flush = %v", err)
	}
	rec.StreamTo(&bytes.Buffer{})
}

// TestDisabledPathAllocs pins the contract the Stage* benchmark gates
// depend on: with recording off, the full span protocol allocates nothing.
func TestDisabledPathAllocs(t *testing.T) {
	var rec *Recorder
	allocs := testing.AllocsPerRun(100, func() {
		sc := rec.Scope("bench", 2, 1)
		sp := sc.Start(StageSim)
		sp.SetOutcome(cache.OutcomeMiss)
		sp.SetInstrs(42)
		sp.SetRegions(7)
		sp.SetSelected(1)
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled path allocates %.0f per run, want 0", allocs)
	}
}

// TestSpanRecordingAndAggregation drives a recorder through a synthetic
// two-benchmark run and checks the per-stage totals, ordering, and the
// rendered table.
func TestSpanRecordingAndAggregation(t *testing.T) {
	rec := NewRecorder()
	a := rec.Scope("fir", 0, 0)
	b := rec.Scope("brev", 2, 1)

	sp := a.Start(StageSim)
	sp.SetOutcome(cache.OutcomeMiss)
	sp.SetInstrs(1000)
	sp.End()

	sp = b.Start(StageSim)
	sp.SetOutcome(cache.OutcomeHit)
	sp.SetInstrs(500)
	sp.End()

	sp = a.Start(StageLift)
	sp.SetOutcome(cache.OutcomeDisk)
	sp.SetRegions(3)
	sp.End()

	sp = b.Start(StageEvaluate)
	sp.SetSelected(2)
	sp.End()

	totals := rec.StageTotals()
	order := make([]string, len(totals))
	byStage := map[string]StageTotal{}
	n := 0
	for i, st := range totals {
		order[i] = st.Stage
		byStage[st.Stage] = st
		n += st.Spans
	}
	if n != 4 {
		t.Fatalf("got %d spans, want 4", n)
	}
	want := []string{StageSim, StageLift, StageEvaluate}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Errorf("stage order = %v, want %v", order, want)
	}
	sim := byStage[StageSim]
	if sim.Spans != 2 || sim.Hit != 1 || sim.Miss != 1 || sim.Instrs != 1500 {
		t.Errorf("sim totals = %+v", sim)
	}
	if lift := byStage[StageLift]; lift.Disk != 1 || lift.Regions != 3 {
		t.Errorf("lift totals = %+v", lift)
	}
	if ev := byStage[StageEvaluate]; ev.Selected != 2 {
		t.Errorf("evaluate totals = %+v", ev)
	}

	table := rec.Table()
	for _, want := range []string{"sim", "lift", "evaluate", "1500 instructions simulated", "3 regions recovered", "2 selected"} {
		if !bytes.Contains([]byte(table), []byte(want)) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
}

// TestStageWallNotTruncated: wall time accumulates in nanoseconds and is
// converted to microseconds only when snapshotted, so a thousand 900ns
// spans report 900us rather than rounding each span down to zero.
func TestStageWallNotTruncated(t *testing.T) {
	rec := NewRecorder()
	for i := 0; i < 1000; i++ {
		rec.emit(Span{Stage: StageSim, Dur: 900 * time.Nanosecond})
	}
	st := rec.StageTotals()[0]
	if st.Spans != 1000 || st.WallUS != 900 {
		t.Errorf("1000 x 900ns spans: %d spans, wall %dus, want 1000 spans, 900us", st.Spans, st.WallUS)
	}
	if st.Latency.SumNs != 900_000 {
		t.Errorf("histogram sum %dns, want 900000ns", st.Latency.SumNs)
	}
}

// TestRecorderMemoryBounded: the recorder keeps per-stage totals, not
// spans, so a million ended spans must not grow the heap.
func TestRecorderMemoryBounded(t *testing.T) {
	rec := NewRecorder()
	sc := rec.Scope("fir", 0, 0)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < 1_000_000; i++ {
		sp := sc.Start(StageSim)
		sp.SetOutcome(cache.OutcomeHit)
		sp.End()
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	grown := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("heap growth over 1M spans: %d bytes", grown)
	if grown > 1<<20 {
		t.Errorf("1M spans grew the heap by %d bytes, want < 1MB", grown)
	}
	if st := rec.StageTotals()[0]; st.Spans != 1_000_000 || st.Hit != 1_000_000 {
		t.Errorf("totals = %d spans, %d hits, want 1M each", st.Spans, st.Hit)
	}
	runtime.KeepAlive(rec)
}

// TestRecorderConcurrentScrape: spans ending on many goroutines while
// another scrapes /metrics and the stage totals must all be counted
// exactly. Run under -race this is the recorder's concurrency test.
func TestRecorderConcurrentScrape(t *testing.T) {
	const workers, perWorker = 8, 10_000
	rec := NewRecorder()
	src := DebugSources{Rec: rec}
	stop := make(chan struct{})
	scraped := make(chan int)
	go func() {
		n := 0
		defer func() { scraped <- n }()
		for {
			select {
			case <-stop:
				return
			default:
			}
			WriteMetrics(io.Discard, src)
			rec.StageTotals()
			n++
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sc := rec.Scope("fir", 0, w)
			for i := 0; i < perWorker; i++ {
				sp := sc.Start(StageSim)
				if i%2 == 0 {
					sp.SetOutcome(cache.OutcomeHit)
				} else {
					sp.SetOutcome(cache.OutcomeMiss)
				}
				sp.SetInstrs(1)
				sp.End()
				ev := sc.Start(StageEvaluate)
				ev.End()
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	if <-scraped == 0 {
		t.Error("scraper never completed a pass")
	}

	totals := rec.StageTotals()
	if len(totals) != 2 {
		t.Fatalf("got %d stages, want 2: %+v", len(totals), totals)
	}
	const n = workers * perWorker
	if sim := totals[0]; sim.Stage != StageSim || sim.Spans != n || sim.Hit != n/2 || sim.Miss != n/2 || sim.Instrs != n {
		t.Errorf("sim totals = %+v, want %d spans, %d hits, %d misses", sim, n, n/2, n/2)
	}
	if ev := totals[1]; ev.Stage != StageEvaluate || ev.Spans != n || ev.Hit+ev.Miss != 0 {
		t.Errorf("evaluate totals = %+v, want %d uncached spans", ev, n)
	}
}

// TestStreamJSONL checks the -trace surface: a meta header line carrying
// the trace context, then one JSON object per span, in emission order,
// with the documented field names.
func TestStreamJSONL(t *testing.T) {
	rec := NewRecorder()
	var buf bytes.Buffer
	rec.StreamTo(&buf)

	sc := rec.Scope("fir", 1, 3)
	for i := 0; i < 5; i++ {
		sp := sc.Start(StageSynth)
		sp.SetOutcome(cache.OutcomeMiss)
		sp.End()
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}

	scanner := bufio.NewScanner(&buf)
	n, metas := 0, 0
	for scanner.Scan() {
		var line struct {
			Meta   string `json:"meta"`
			Stage  string `json:"stage"`
			Bench  string `json:"bench"`
			Level  int    `json:"opt"`
			Worker int    `json:"worker"`
			Trace  string `json:"trace"`
			Epoch  int64  `json:"epoch_unix_us"`
			Cache  string `json:"cache"`
			DurUS  *int64 `json:"dur_us"`
		}
		if err := json.Unmarshal(scanner.Bytes(), &line); err != nil {
			t.Fatalf("line %d: %v", n, err)
		}
		if line.Meta != "" {
			if metas != 0 || n != 0 {
				t.Errorf("meta line %q after %d spans, want exactly one header", line.Meta, n)
			}
			if line.Meta != MetaTrace || line.Trace != rec.TraceID() || line.Epoch == 0 {
				t.Errorf("bad stream header: %+v", line)
			}
			metas++
			continue
		}
		if line.Stage != StageSynth || line.Bench != "fir" || line.Level != 1 || line.Worker != 3 {
			t.Errorf("line %d attribution: %+v", n, line)
		}
		if line.Cache != "miss" {
			t.Errorf("line %d cache = %q, want miss", n, line.Cache)
		}
		if line.DurUS == nil {
			t.Errorf("line %d missing dur_us", n)
		}
		n++
	}
	if metas != 1 || n != 5 {
		t.Errorf("streamed %d meta + %d span lines, want 1 + 5", metas, n)
	}
}

// TestManifestRoundTrip builds a manifest from a live recorder and cache
// snapshot, writes it, reads it back, and checks the reconciliation
// surface: span totals and cache counters survive the round trip exactly.
func TestManifestRoundTrip(t *testing.T) {
	rec := NewRecorder()
	sc := rec.Scope("fir", 0, 0)
	sp := sc.Start(StageSim)
	sp.SetOutcome(cache.OutcomeMiss)
	sp.SetInstrs(123)
	sp.End()
	sp = sc.Start(StageLift)
	sp.SetOutcome(cache.OutcomeHit)
	sp.End()

	caches := map[string]cache.Stats{
		"sim":  {Hits: 0, Misses: 1},
		"lift": {Hits: 1, Misses: 0},
	}
	m := BuildManifest("test", []string{"-table", "1"}, 4, rec, caches)
	if m.Spans != 2 {
		t.Errorf("manifest spans = %d, want 2", m.Spans)
	}
	if m.Workers != 4 || m.Tool != "test" {
		t.Errorf("manifest header = %+v", m)
	}

	path := filepath.Join(t.TempDir(), "manifest.json")
	if err := m.Write(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back Manifest
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Spans != m.Spans || len(back.Stages) != len(m.Stages) {
		t.Errorf("round trip lost stages: %+v vs %+v", back, m)
	}
	if fmt.Sprint(back.Caches) != fmt.Sprint(caches) {
		t.Errorf("round trip lost cache stats: %+v vs %+v", back.Caches, caches)
	}
}

// TestBuildManifestNil checks the degenerate inputs the CLIs can produce:
// no recorder and no caches must still yield a writable manifest.
func TestBuildManifestNil(t *testing.T) {
	m := BuildManifest("test", nil, 1, nil, nil)
	if m.Spans != 0 || m.Stages != nil {
		t.Errorf("nil recorder produced stages: %+v", m)
	}
	if err := m.Write(filepath.Join(t.TempDir(), "m.json")); err != nil {
		t.Fatal(err)
	}
}

// TestServeDebug smoke-tests the -debug-addr listener: /metrics must
// serve the Prometheus exposition with stage, cache, and disk-tier
// series.
func TestServeDebug(t *testing.T) {
	rec := NewRecorder()
	sp := rec.Scope("fir", 0, 0).Start(StageSim)
	sp.End()

	dbg, err := ServeDebug("127.0.0.1:0", DebugSources{
		Rec: rec,
		Caches: func() map[string]cache.Stats {
			return map[string]cache.Stats{"sim": {Hits: 7}}
		},
		DiskLatencies: func() map[string]hist.Snapshot {
			var s hist.Snapshot
			s.Observe(3 * time.Millisecond)
			return map[string]hist.Snapshot{"sim": s}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dbg.Close()
	body := scrapeMetrics(t, dbg.Addr())
	for _, want := range []string{
		`binpart_stage_spans_total{stage="sim"} 1`,
		`binpart_cache_hits_total{cache="sim"} 7`,
		`binpart_stage_latency_seconds{stage="sim",quantile="0.5"}`,
		`binpart_stage_latency_seconds{stage="sim",quantile="0.95"}`,
		`binpart_stage_latency_seconds{stage="sim",quantile="0.99"}`,
		`binpart_cache_tier_latency_seconds{cache="sim",tier="disk",quantile="0.99"}`,
	} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
}

// TestServeDebugListenersKeepOwnSources runs two listeners side by side,
// as a process hosting two recorders would: each /metrics must serve
// its own recorder's stages and never the other listener's.
func TestServeDebugListenersKeepOwnSources(t *testing.T) {
	stages := []string{StageSim, StageLift}
	addrs := make([]string, len(stages))
	for i, stage := range stages {
		rec := NewRecorder()
		sp := rec.Scope("fir", 0, 0).Start(stage)
		sp.End()
		dbg, err := ServeDebug("127.0.0.1:0", DebugSources{Rec: rec})
		if err != nil {
			t.Fatal(err)
		}
		defer dbg.Close()
		addrs[i] = dbg.Addr()
	}
	for i, stage := range stages {
		body := scrapeMetrics(t, addrs[i])
		for j, other := range stages {
			series := []byte(`binpart_stage_spans_total{stage="` + other + `"} 1`)
			if got := bytes.Contains(body, series); got != (i == j) {
				t.Errorf("listener for %s: serves %s series = %v, want %v:\n%s", stage, other, got, i == j, body)
			}
		}
	}
}

// scrapeMetrics fetches a debug listener's /metrics body.
func scrapeMetrics(t *testing.T, addr string) []byte {
	t.Helper()
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestSpanOutcomeReconciliation pins the span↔counter invariant the
// manifest property test in exper relies on: per cache, summing span
// outcomes must reproduce the aggregate Stats exactly.
func TestSpanOutcomeReconciliation(t *testing.T) {
	c := cache.New[int](8)
	rec := NewRecorder()
	sc := rec.Scope("x", 0, 0)
	key := func(i int) cache.Key { return cache.NewHasher("t").Int(int64(i)).Sum() }

	for round := 0; round < 3; round++ {
		for i := 0; i < 4; i++ {
			sp := sc.Start(StageSim)
			_, out, err := c.GetOrCompute(key(i), func() (int, error) { return i, nil })
			if err != nil {
				t.Fatal(err)
			}
			sp.SetOutcome(out)
			sp.End()
		}
	}

	st := rec.StageTotals()[0]
	s := c.Stats()
	if st.Hit+st.Wait+st.Disk != s.Hits {
		t.Errorf("span hits %d+%d+%d != cache hits %d",
			st.Hit, st.Wait, st.Disk, s.Hits)
	}
	if st.Miss+st.Corrupt != s.Misses {
		t.Errorf("span misses %d+%d != cache misses %d", st.Miss, st.Corrupt, s.Misses)
	}
}
