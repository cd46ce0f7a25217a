package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"binpart/internal/bench"
	"binpart/internal/binimg"
	"binpart/internal/core"
	"binpart/internal/obs"
)

func testDaemon(t testing.TB, cfg daemonConfig) *daemon {
	t.Helper()
	if cfg.Caches == nil {
		cfg.Caches = core.NewCaches()
	}
	if cfg.Rec == nil {
		cfg.Rec = obs.NewRecorder()
	}
	if cfg.Queue == 0 {
		cfg.Queue = 64
	}
	if cfg.Inflight == 0 {
		cfg.Inflight = 8
	}
	return newDaemon(cfg)
}

func postJSON(t *testing.T, client *http.Client, url string, req apiRequest) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Error(err)
		return nil, nil
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Error(err)
		return nil, nil
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Error(err)
		return nil, nil
	}
	return resp, out
}

// partitionTime is the one non-deterministic token in a report — the
// heuristic's measured wall time. Everything else must match
// byte-for-byte between the daemon and the CLI rendering.
var partitionTime = regexp.MustCompile(`partition \(([^,]+), [^)]+\)`)

func stripTiming(s string) string {
	return partitionTime.ReplaceAllString(s, "partition ($1)")
}

// TestPartitionMatchesCLI posts concurrent partition requests (8 at a
// time, mixed benchmarks, under -race) and checks every response's
// report text is byte-identical (modulo the measured partition wall
// time) to what the bparts rendering produces for the same inputs.
func TestPartitionMatchesCLI(t *testing.T) {
	d := testDaemon(t, daemonConfig{})
	ts := httptest.NewServer(d.Mux())
	defer ts.Close()

	benches := []string{"crc", "fir", "brev", "bcnt"}
	want := make(map[string]string)
	opts := core.DefaultOptions()
	for _, name := range benches {
		b, ok := bench.ByName(name)
		if !ok {
			t.Fatalf("unknown bench %s", name)
		}
		img, err := b.Compile(1)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := core.RunScoped(img, opts, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		want[name] = core.RenderReport(rep, false)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := benches[g%len(benches)]
			resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/partition", apiRequest{Bench: name, Opt: 1})
			if resp == nil {
				return
			}
			if resp.StatusCode != http.StatusOK {
				t.Errorf("%s: status %d: %s", name, resp.StatusCode, body)
				return
			}
			var pr partitionResponse
			if err := json.Unmarshal(body, &pr); err != nil {
				t.Errorf("%s: %v", name, err)
				return
			}
			if stripTiming(pr.Report) != stripTiming(want[name]) {
				t.Errorf("%s: daemon report differs from CLI rendering:\n--- daemon ---\n%s\n--- cli ---\n%s",
					name, pr.Report, want[name])
			}
			if pr.Selected == 0 || pr.SWCycles == 0 {
				t.Errorf("%s: empty summary fields: %+v", name, pr)
			}
		}(g)
	}
	wg.Wait()
}

// TestPartitionBodyIsMarshaledResponse checks /v1/partition's exact
// bytes: each body must equal json.Marshal of the response the CLI
// rendering implies, plus a newline, with only the measured partition
// time and elapsed_us taken from the daemon's answer, and Content-Length
// must match. Long (structure) and short bodies alternate, so a pooled
// buffer that leaked bytes between requests would show.
func TestPartitionBodyIsMarshaledResponse(t *testing.T) {
	d := testDaemon(t, daemonConfig{Inflight: 1})
	ts := httptest.NewServer(d.Mux())
	defer ts.Close()

	mhz := 400.0
	for i, req := range []apiRequest{
		{Bench: "matmul", Opt: 2, Structure: true},
		{Bench: "crc", Opt: 1, Request: core.Request{MHz: &mhz, Device: "XC2V1000", Alg: "greedy"}},
		{Bench: "matmul", Opt: 2, Structure: true},
		{Bench: "brev"},
	} {
		resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/partition", req)
		if resp == nil {
			return
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, body)
		}
		if cl := resp.Header.Get("Content-Length"); cl != fmt.Sprint(len(body)) {
			t.Errorf("request %d: Content-Length %q for a %d-byte body", i, cl, len(body))
		}
		var got partitionResponse
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}

		_, opts, err := d.decode(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(mustJSON(t, req))), new(bytes.Buffer))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := bench.ByName(req.Bench)
		img, err := b.Compile(req.Opt)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := core.RunScoped(img, opts, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		measured := partitionTime.FindString(got.Report)
		want := partitionResponse{
			Report:    partitionTime.ReplaceAllLiteralString(core.RenderReport(rep, req.Structure), measured),
			Metrics:   metricsFrom(rep.Metrics),
			Selected:  len(rep.SelectedRegions()),
			SWCycles:  rep.SWCycles,
			ExitCode:  rep.ExitCode,
			ElapsedUS: got.ElapsedUS,
		}
		wantBody := append(mustJSON(t, want), '\n')
		if !bytes.Equal(body, wantBody) {
			t.Errorf("request %d: body differs from json.Marshal(response)+newline:\n--- daemon ---\n%s--- want ---\n%s", i, body, wantBody)
		}
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSweepStreamMatchesCLI reassembles the ndjson sweep stream and
// checks header + point texts concatenate to exactly the bparts sweep
// body, with a correct done trailer.
func TestSweepStreamMatchesCLI(t *testing.T) {
	d := testDaemon(t, daemonConfig{})
	ts := httptest.NewServer(d.Mux())
	defer ts.Close()

	opts := core.DefaultOptions()
	b, _ := bench.ByName("crc")
	img, err := b.Compile(1)
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.AnalyzeScoped(img, opts, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	header, pts := core.Sweep(a, opts, "devices", nil, nil)
	want.WriteString(header)
	wantPoints := 0
	for _, pt := range pts {
		want.WriteString(pt.Text)
		wantPoints++
	}

	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/sweep", apiRequest{Bench: "crc", Opt: 1, Request: core.Request{Sweep: "devices"}})
	if resp == nil {
		return
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got strings.Builder
	done := false
	points := 0
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		var ch sweepChunk
		if err := json.Unmarshal(sc.Bytes(), &ch); err != nil {
			t.Fatalf("bad chunk %q: %v", sc.Text(), err)
		}
		switch {
		case ch.Done:
			done = true
			if ch.Points != wantPoints {
				t.Errorf("done trailer points = %d, want %d", ch.Points, wantPoints)
			}
		case ch.Header != "":
			got.WriteString(ch.Header)
		default:
			got.WriteString(ch.Text)
			points++
		}
	}
	if !done {
		t.Error("stream missing done trailer")
	}
	if got.String() != want.String() {
		t.Errorf("sweep stream differs from CLI rendering:\n--- daemon ---\n%s\n--- cli ---\n%s", got.String(), want.String())
	}
}

// TestQueueFullReturns429 pins one request in flight through the gate
// hook with queue bound 1: the next request must be refused with 429
// and a Retry-After header, not parked.
func TestQueueFullReturns429(t *testing.T) {
	d := testDaemon(t, daemonConfig{Queue: 1, Inflight: 1})
	hold := make(chan struct{})
	entered := make(chan struct{}, 1)
	d.gate = func() {
		entered <- struct{}{}
		<-hold
	}
	ts := httptest.NewServer(d.Mux())
	defer ts.Close()

	first := make(chan struct{})
	go func() {
		defer close(first)
		resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/partition", apiRequest{Bench: "crc", Opt: 1})
		if resp != nil && resp.StatusCode != http.StatusOK {
			t.Errorf("pinned request: status %d", resp.StatusCode)
		}
	}()
	<-entered
	// Release the pinned request before the server closes, on every path.
	defer func() {
		close(hold)
		<-first
	}()

	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/partition", apiRequest{Bench: "crc", Opt: 1})
	if resp == nil {
		return
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("queue-full status = %d, want 429 (%s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 missing Retry-After")
	}
}

// TestInflightCompletesAcrossShutdown holds a request in flight, starts
// a graceful Shutdown, and checks the request still completes with 200
// while new requests are refused (draining).
func TestInflightCompletesAcrossShutdown(t *testing.T) {
	d := testDaemon(t, daemonConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: d.Mux(), ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(ln) //nolint:errcheck
	base := "http://" + ln.Addr().String()

	hold := make(chan struct{})
	entered := make(chan struct{}, 1)
	d.gate = func() {
		entered <- struct{}{}
		<-hold
	}

	client := &http.Client{Timeout: 60 * time.Second}
	inflight := make(chan int, 1)
	go func() {
		resp, _ := postJSON(t, client, base+"/v1/partition", apiRequest{Bench: "crc", Opt: 1})
		if resp == nil {
			inflight <- 0
			return
		}
		inflight <- resp.StatusCode
	}()
	<-entered

	d.SetDraining()
	shutdownDone := make(chan error, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	go func() { shutdownDone <- srv.Shutdown(ctx) }()

	// While draining, a fresh request is refused (the listener may
	// already be closed, or the daemon answers 503 — either refusal is
	// correct; what matters is it is not silently queued).
	time.Sleep(50 * time.Millisecond)
	if resp, err := client.Post(base+"/v1/partition", "application/json",
		strings.NewReader(`{"bench":"crc","opt":1}`)); err == nil {
		if resp.StatusCode == http.StatusOK {
			t.Error("new request served during drain")
		}
		resp.Body.Close()
	}

	// No t.Fatal while the in-flight poster still holds t: report, put
	// the result back, and let the request finish below.
	select {
	case err := <-shutdownDone:
		t.Error("Shutdown returned while a request was still in flight")
		shutdownDone <- err
	case <-time.After(100 * time.Millisecond):
	}

	close(hold)
	if code := <-inflight; code != http.StatusOK {
		t.Errorf("in-flight request across Shutdown: status %d, want 200", code)
	}
	if err := <-shutdownDone; err != nil {
		t.Errorf("Shutdown: %v", err)
	}
}

// TestMetricsScrapeableMidLoad scrapes the ops /metrics surface while
// posters hammer the API, checking the bpartd_* families appear and
// every scrape succeeds mid-mutation.
func TestMetricsScrapeableMidLoad(t *testing.T) {
	rec := obs.NewRecorder()
	caches := core.NewCaches()
	d := testDaemon(t, daemonConfig{Rec: rec, Caches: caches})
	ts := httptest.NewServer(d.Mux())
	defer ts.Close()

	dbg, err := serveOps("127.0.0.1:0", obs.MetricsSources{Rec: rec, Caches: caches.StatsMap}, d.WriteMetrics)
	if err != nil {
		t.Fatal(err)
	}
	defer dbg.Close()

	stop := make(chan struct{})
	var posters sync.WaitGroup
	for g := 0; g < 4; g++ {
		posters.Add(1)
		go func() {
			defer posters.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/partition", apiRequest{Bench: "crc", Opt: 1})
				if resp == nil {
					return
				}
				if resp.StatusCode != http.StatusOK {
					t.Errorf("post under load: %d", resp.StatusCode)
					return
				}
			}
		}()
	}

	// Every family is pre-registered, so even the first scrape — before
	// any request has completed — must carry it. Failures break out of
	// the loop rather than t.Fatal: the posters still hold t and must be
	// stopped first.
	url := "http://" + dbg.Addr() + "/metrics"
	deadline := time.Now().Add(2 * time.Second)
	scrapes := 0
	for time.Now().Before(deadline) && !t.Failed() {
		resp, err := http.Get(url)
		if err != nil {
			t.Errorf("scrape: %v", err)
			break
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Errorf("scrape: status %d err %v", resp.StatusCode, err)
			break
		}
		for _, family := range []string{"bpartd_requests_total", "bpartd_rejected_total", "bpartd_queue_depth", "bpartd_inflight"} {
			if !strings.Contains(string(body), "# TYPE "+family+" ") {
				t.Errorf("scrape %d missing %s:\n%s", scrapes, family, body)
			}
		}
		scrapes++
	}
	close(stop)
	posters.Wait()
	if t.Failed() {
		return
	}
	if scrapes < 2 {
		t.Errorf("only %d scrapes completed", scrapes)
	}

	// The serving spans must reconcile against the cache counters even
	// mid-life — the same invariant the daemon checks at shutdown.
	if err := rec.Reconcile(caches.StatsMap()); err != nil {
		t.Errorf("mid-load reconcile: %v", err)
	}
}

// TestMetricsSeriesAtZero checks that a fresh daemon, before any
// request, exposes a zero bpartd_requests_total series for every route
// and every code the handlers answer with: 200, fail's 400 and 413, and
// admit's 429 and 503.
func TestMetricsSeriesAtZero(t *testing.T) {
	var buf bytes.Buffer
	testDaemon(t, daemonConfig{}).WriteMetrics(&buf)
	for _, route := range routeNames {
		for _, code := range []int{http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge,
			http.StatusTooManyRequests, http.StatusServiceUnavailable} {
			series := fmt.Sprintf(`bpartd_requests_total{route=%q,code="%d"} 0`, route, code)
			if !strings.Contains(buf.String(), series+"\n") {
				t.Errorf("missing %s in:\n%s", series, buf.String())
			}
		}
	}
}

// TestBadRequests covers the refusal paths: no binary named, unknown
// bench, unknown sweep mode, malformed JSON, an opt level outside 0-3,
// a CPU clock or sweep clock outside platform.CheckMHz's range, a
// negative area budget, an area budget on a sweep (400), and a body over
// the size limit (413 naming the limit, not a truncated-JSON 400).
func TestBadRequests(t *testing.T) {
	d := testDaemon(t, daemonConfig{})
	ts := httptest.NewServer(d.Mux())
	defer ts.Close()

	oversized := `{"bench":"crc","pad":"` + strings.Repeat("x", maxBodyBytes) + `"}`
	for _, tc := range []struct {
		route, body string
		want        int
	}{
		{"/v1/partition", `{}`, http.StatusBadRequest},
		{"/v1/partition", `{"bench":"no-such-bench"}`, http.StatusBadRequest},
		{"/v1/partition", `not json`, http.StatusBadRequest},
		{"/v1/sweep", `{"bench":"crc","sweep":"nope"}`, http.StatusBadRequest},
		{"/v1/partition", `{"bench":"crc","alg":"nope"}`, http.StatusBadRequest},
		{"/v1/partition", `{"bench":"crc","device":"nope"}`, http.StatusBadRequest},
		{"/v1/partition", oversized, http.StatusRequestEntityTooLarge},
		{"/v1/partition", `{"bench":"crc","opt":4}`, http.StatusBadRequest},
		{"/v1/partition", `{"bench":"crc","opt":-1}`, http.StatusBadRequest},
		{"/v1/sweep", `{"bench":"crc","opt":9,"sweep":"devices"}`, http.StatusBadRequest},
		{"/v1/partition", `{"bench":"crc","mhz":-200}`, http.StatusBadRequest},
		{"/v1/partition", `{"bench":"crc","mhz":0}`, http.StatusBadRequest},
		{"/v1/partition", `{"bench":"crc","mhz":1e-300}`, http.StatusBadRequest},
		{"/v1/partition", `{"bench":"crc","mhz":20000}`, http.StatusBadRequest},
		{"/v1/sweep", `{"bench":"crc","sweep":"clocks","device":"XC2V40","clocks":[0,200]}`, http.StatusBadRequest},
		{"/v1/sweep", `{"bench":"crc","sweep":"clocks","clocks":[200,-40]}`, http.StatusBadRequest},
		{"/v1/partition", `{"bench":"crc","area_budget_gates":-1}`, http.StatusBadRequest},
		{"/v1/sweep", `{"bench":"crc","sweep":"clocks","area_budget_gates":20000}`, http.StatusBadRequest},
	} {
		resp, err := ts.Client().Post(ts.URL+tc.route, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s %.40q: status %d, want %d (%s)", tc.route, tc.body, resp.StatusCode, tc.want, body)
		} else if tc.want == http.StatusRequestEntityTooLarge && !strings.Contains(string(body), "16 MiB") {
			t.Errorf("413 body %q does not name the limit", body)
		}
	}
	// An out-of-range level is refused before any cache is consulted.
	if st := d.caches.Compile.Stats(); st.Hits+st.Misses != 0 {
		t.Errorf("bad requests reached the compile cache: %+v", st)
	}
}

// TestDeadlineBoundsAdmissionWait holds the only execution slot and
// posts a second request under a 100 ms deadline: it must be refused with
// 503 "deadline waiting for a slot" within about the deadline (not park
// until the client gives up), and counted as a deadline rejection.
func TestDeadlineBoundsAdmissionWait(t *testing.T) {
	const deadline = 100 * time.Millisecond
	d := testDaemon(t, daemonConfig{Queue: 4, Inflight: 1, Deadline: deadline})
	hold := make(chan struct{})
	entered := make(chan struct{}, 1)
	d.gate = func() {
		entered <- struct{}{}
		<-hold
	}
	ts := httptest.NewServer(d.Mux())
	defer ts.Close()

	first := make(chan struct{})
	go func() {
		defer close(first)
		postJSON(t, ts.Client(), ts.URL+"/v1/partition", apiRequest{Bench: "crc", Opt: 1})
	}()
	<-entered
	defer func() {
		close(hold)
		<-first
	}()

	client := &http.Client{Timeout: 2 * time.Second}
	begin := time.Now()
	resp, body := postJSON(t, client, ts.URL+"/v1/partition", apiRequest{Bench: "crc", Opt: 1})
	waited := time.Since(begin)
	if resp == nil {
		return
	}
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "deadline waiting for a slot") {
		t.Errorf("status %d body %q, want 503 \"deadline waiting for a slot\"", resp.StatusCode, body)
	}
	if waited < deadline || waited > deadline+time.Second {
		t.Errorf("refused after %v, want about the %v deadline", waited, deadline)
	}
	var buf bytes.Buffer
	d.WriteMetrics(&buf)
	if want := `bpartd_rejected_total{reason="deadline"} 1` + "\n"; !strings.Contains(buf.String(), want) {
		t.Errorf("metrics lack %q:\n%s", want, buf.String())
	}
}

// TestDuplicateFunctionNamesUpload uploads brev −O1 with every text
// symbol named f, three times at once, to a daemon with two execution
// slots and a 2 s deadline. Symbol names identify nothing in the
// analysis, so every request must get a 200 within the deadline carrying
// the original image's metrics; none may drop its connection or hold a
// slot on an analysis that never finishes.
func TestDuplicateFunctionNamesUpload(t *testing.T) {
	const deadline = 2 * time.Second
	d := testDaemon(t, daemonConfig{Inflight: 2, Deadline: deadline})
	ts := httptest.NewServer(d.Mux())
	defer ts.Close()

	b, _ := bench.ByName("brev")
	img, err := b.Compile(1)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := core.Run(img, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := metricsFrom(rep.Metrics)
	syms := slices.Clone(img.Symbols)
	for i := range syms {
		if img.InText(syms[i].Addr) {
			syms[i].Name = "f"
		}
	}
	sbf, err := (&binimg.Image{Entry: img.Entry, TextBase: img.TextBase, Text: img.Text,
		DataBase: img.DataBase, Data: img.Data, Symbols: syms}).Marshal()
	if err != nil {
		t.Fatal(err)
	}

	client := &http.Client{Timeout: deadline}
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := postJSON(t, client, ts.URL+"/v1/partition", apiRequest{SBF: sbf})
			if resp == nil {
				return
			}
			var got partitionResponse
			if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &got) != nil {
				t.Errorf("request %d: status %d: %s", i, resp.StatusCode, body)
				return
			}
			if got.Metrics != want {
				t.Errorf("request %d: metrics %+v, want the original image's %+v", i, got.Metrics, want)
			}
		}(i)
	}
	wg.Wait()
}
