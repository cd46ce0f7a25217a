package main

import (
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"binpart/internal/obs"
)

// opsServer is the -ops-addr listener on a properly configured
// http.Server: /metrics and net/pprof, plus whatever routes the daemon
// adds with Handle.
type opsServer struct {
	addr string
	mux  *http.ServeMux
	srv  *http.Server
	done chan struct{} // closed when the Serve goroutine returns
}

// serveOps starts the ops listener: /debug/pprof/* serves net/pprof, and
// /metrics serves obs.WriteMetrics over src — stage counters and latency
// summaries, cache counters — followed by whatever extra appends (the
// daemon's bpartd_* families; nil appends nothing). Each listener reads
// only its own src. Read-header and idle timeouts keep a slow or stalled
// client from wedging it; stop it with Close.
func serveOps(addr string, src obs.MetricsSources, extra func(io.Writer)) (*opsServer, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		obs.WriteMetrics(w, src)
		if extra != nil {
			extra(w)
		}
	})

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	o := &opsServer{
		addr: ln.Addr().String(),
		mux:  mux,
		srv: &http.Server{
			Handler:           mux,
			ReadHeaderTimeout: 5 * time.Second,
			IdleTimeout:       time.Minute,
		},
		done: make(chan struct{}),
	}
	go func() {
		defer close(o.done)
		o.srv.Serve(ln) //nolint:errcheck // ErrServerClosed after Close
	}()
	return o, nil
}

// Addr is the bound listen address (useful with ":0").
func (o *opsServer) Addr() string { return o.addr }

// Handle registers an extra route on the ops mux (/healthz, /readyz).
func (o *opsServer) Handle(pattern string, h http.Handler) { o.mux.Handle(pattern, h) }

// Close tears the listener and all connections down immediately.
func (o *opsServer) Close() error {
	err := o.srv.Close()
	<-o.done
	return err
}
