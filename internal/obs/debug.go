package obs

import (
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"time"

	"binpart/internal/cache"
	"binpart/internal/obs/hist"
)

// DebugSources is what the debug listener reads: the live recorder and
// the per-stage cache counters. Every field may be nil — the
// corresponding metrics are simply absent.
type DebugSources struct {
	Rec    *Recorder
	Caches func() map[string]cache.Stats
	// Extra, when set, is appended to the /metrics exposition after the
	// standard families — how a front-end (the bpartd daemon) publishes
	// its own counters through the shared ops surface.
	Extra func(io.Writer)
}

// DebugServer is the handle returned by ServeDebug: the ops listener on
// a properly configured http.Server. Callers register extra routes with
// Handle before traffic matters and tear the listener down with Close.
type DebugServer struct {
	addr string
	mux  *http.ServeMux
	srv  *http.Server
	done chan struct{} // closed when the Serve goroutine returns
}

// ServeDebug starts an HTTP listener for long sweeps and daemons:
// /debug/pprof/* serves net/pprof, and /metrics serves the Prometheus
// text exposition of src — stage counters and latency summaries, cache
// counters, and whatever src.Extra appends.
// Each listener reads only its own src. The listener runs on an
// http.Server with read-header and idle timeouts so a slow or stalled
// client cannot wedge it; stop it with Close on the returned handle.
func ServeDebug(addr string, src DebugSources) (*DebugServer, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		WriteMetrics(w, src)
		if src.Extra != nil {
			src.Extra(w)
		}
	})

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	d := &DebugServer{
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
		defer close(d.done)
		d.srv.Serve(ln) //nolint:errcheck // ErrServerClosed after Close
	}()
	return d, nil
}

// Addr is the bound listen address (useful with ":0").
func (d *DebugServer) Addr() string { return d.addr }

// Handle registers an extra route on the ops mux — how bpartd mounts
// /healthz and /readyz next to the shared /metrics and pprof surface.
func (d *DebugServer) Handle(pattern string, h http.Handler) { d.mux.Handle(pattern, h) }

// Close tears the listener and all connections down immediately.
func (d *DebugServer) Close() error {
	err := d.srv.Close()
	<-d.done
	return err
}

// WriteMetrics renders the sweep-side metrics in the Prometheus text
// exposition format: per-stage span counters, cache-outcome counters
// and latency summaries, and the per-cache counters.
func WriteMetrics(w io.Writer, src DebugSources) {
	p := hist.NewProm(w)
	totals := src.Rec.StageTotals()
	for _, st := range totals {
		p.Counter("binpart_stage_spans_total", hist.Label("stage", st.Stage), float64(st.Spans))
	}
	for _, st := range totals {
		p.Counter("binpart_stage_wall_seconds_total", hist.Label("stage", st.Stage), float64(st.WallUS)/1e6)
	}
	for _, st := range totals {
		stage := hist.Label("stage", st.Stage)
		for _, oc := range []struct {
			name string
			n    uint64
		}{
			{"hit", st.Hit}, {"miss", st.Miss}, {"wait", st.Wait},
		} {
			if oc.n > 0 {
				p.Counter("binpart_stage_cache_outcomes_total",
					hist.Labels(stage, hist.Label("outcome", oc.name)), float64(oc.n))
			}
		}
	}
	for _, st := range totals {
		p.Summary("binpart_stage_latency_seconds", hist.Label("stage", st.Stage), st.Latency)
	}
	if src.Caches != nil {
		stats := src.Caches()
		names := sortedKeys(stats)
		// Group by family, not by cache: the exposition format wants
		// every sample of one family contiguous.
		for _, name := range names {
			p.Counter("binpart_cache_hits_total", hist.Label("cache", name), float64(stats[name].Hits))
		}
		for _, name := range names {
			p.Counter("binpart_cache_misses_total", hist.Label("cache", name), float64(stats[name].Misses))
		}
		for _, name := range names {
			p.Counter("binpart_cache_evictions_total", hist.Label("cache", name), float64(stats[name].Evictions))
		}
		for _, name := range names {
			p.Gauge("binpart_cache_entries", hist.Label("cache", name), float64(stats[name].Entries))
		}
	}
}

// sortedKeys orders a string-keyed map for deterministic exposition.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
