package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"flag"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"binpart/internal/cache"
	"binpart/internal/obs"
)

// TestServeOps smoke-tests the ops listener: /metrics must serve the
// Prometheus exposition with stage and cache series, then the extra
// families.
func TestServeOps(t *testing.T) {
	rec := obs.NewRecorder()
	sp := rec.Scope("fir", 0, 0).Start(obs.StageSim)
	sp.End()

	ops, err := serveOps("127.0.0.1:0", obs.MetricsSources{
		Rec: rec,
		Caches: func() map[string]cache.Stats {
			return map[string]cache.Stats{"sim": {Hits: 7}}
		},
	}, func(w io.Writer) { io.WriteString(w, "extra_family 1\n") })
	if err != nil {
		t.Fatal(err)
	}
	defer ops.Close()
	body := scrapeMetrics(t, ops.Addr())
	for _, want := range []string{
		`binpart_stage_spans_total{stage="sim"} 1`,
		`binpart_cache_hits_total{cache="sim"} 7`,
		`binpart_stage_latency_seconds{stage="sim",quantile="0.5"}`,
		`binpart_stage_latency_seconds{stage="sim",quantile="0.95"}`,
		`binpart_stage_latency_seconds{stage="sim",quantile="0.99"}`,
	} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
	if !bytes.HasSuffix(body, []byte("\nextra_family 1\n")) {
		t.Errorf("/metrics does not end with the extra families:\n%s", body)
	}
}

// TestServeOpsListenersKeepOwnSources runs two listeners side by side,
// as a process hosting two recorders would: each /metrics must serve
// its own recorder's stages and never the other listener's.
func TestServeOpsListenersKeepOwnSources(t *testing.T) {
	stages := []string{obs.StageSim, obs.StageLift}
	addrs := make([]string, len(stages))
	for i, stage := range stages {
		rec := obs.NewRecorder()
		sp := rec.Scope("fir", 0, 0).Start(stage)
		sp.End()
		ops, err := serveOps("127.0.0.1:0", obs.MetricsSources{Rec: rec}, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer ops.Close()
		addrs[i] = ops.Addr()
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

// scrapeMetrics fetches an ops listener's /metrics body.
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

// TestListenFailureClosesTrace starts bpartd with a -trace file and
// either listener's address already in use. The daemon is this test
// binary run again with "-- bpartd <flags>", which calls main. It must
// exit 1 and leave the trace a complete gzip stream.
func TestListenFailureClosesTrace(t *testing.T) {
	if flag.Arg(0) == "bpartd" {
		os.Args = flag.Args()
		main()
		return
	}
	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	for _, tc := range []struct{ name, addr, opsAddr string }{
		{"ops-addr", "127.0.0.1:0", busy.Addr().String()},
		{"addr", busy.Addr().String(), "127.0.0.1:0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			trace := filepath.Join(t.TempDir(), "t.jsonl.gz")
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^TestListenFailureClosesTrace$", "--",
				"bpartd", "-addr", tc.addr, "-ops-addr", tc.opsAddr, "-trace", trace)
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 1 {
				t.Fatalf("bpartd on a busy -%s: %v, want exit status 1; stderr:\n%s", tc.name, err, stderr.String())
			}
			if !strings.Contains(stderr.String(), "bpartd: listen tcp "+busy.Addr().String()) {
				t.Errorf("stderr does not report the failed listen:\n%s", stderr.String())
			}

			// A trace left open would have no complete gzip stream.
			f, err := os.Open(trace)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			gz, err := gzip.NewReader(f)
			if err != nil {
				t.Fatalf("trace: %v", err)
			}
			if _, err := io.Copy(io.Discard, gz); err != nil {
				t.Errorf("trace does not read to EOF: %v", err)
			}
		})
	}
}
