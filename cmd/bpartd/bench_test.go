package main

import (
	"bytes"
	"net/http"
	"testing"
)

// discardWriter is the cheapest http.ResponseWriter: it keeps the status
// code and drops the body, so the benchmark times the handler alone.
type discardWriter struct {
	h    http.Header
	code int
	n    int
}

func (w *discardWriter) Header() http.Header { return w.h }

func (w *discardWriter) WriteHeader(code int) { w.code = code }

func (w *discardWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	w.n += len(p)
	return len(p), nil
}

// bodyReader is a reusable request body.
type bodyReader struct{ bytes.Reader }

func (*bodyReader) Close() error { return nil }

// BenchmarkStageWarmPartition serves a warm /v1/partition request
// in-process through Mux().ServeHTTP, with the platform and algorithm
// overridden the way perfbench's warm-partition mix does: admission,
// decode, compile-cache and analysis-cache hits, evaluate, render and
// encode, without sockets. The untimed warm-up fills the caches, so
// every timed iteration is a warm hit.
func BenchmarkStageWarmPartition(b *testing.B) {
	d := testDaemon(b, daemonConfig{})
	mux := d.Mux()
	body := []byte(`{"bench":"crc","opt":1,"mhz":400,"device":"XC2V1000","alg":"greedy"}`)
	rd := &bodyReader{}
	req, err := http.NewRequest(http.MethodPost, "/v1/partition", rd)
	if err != nil {
		b.Fatal(err)
	}
	w := &discardWriter{h: http.Header{}}
	serve := func() {
		rd.Reset(body)
		w.code, w.n = 0, 0
		mux.ServeHTTP(w, req)
	}
	serve()
	if w.code != http.StatusOK || w.n == 0 {
		b.Fatalf("warm-up: status %d, %d body bytes", w.code, w.n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
	b.StopTimer()
	if w.code != http.StatusOK {
		b.Fatalf("status %d", w.code)
	}
}
