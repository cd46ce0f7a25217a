// Command bpartd serves the partitioner: a long-running HTTP daemon in
// front of the analyze-once/evaluate-in-microseconds flow and its stage
// caches.
//
//	POST /v1/partition  {"bench":"crc","opt":1,...}   -> priced partition report as JSON
//	POST /v1/sweep      {"bench":"crc","sweep":"devices",...} -> per-point results as
//	                    chunked ndjson (header line, one line per point, done line)
//
// The body's platform, algorithm, budget, granularity, jump-table and
// sweep fields are a core.Request, the model bparts fills from its flags,
// applied over core.DefaultOptions. The report text inside the responses is
// byte-identical to what the bparts CLI prints for the same inputs — both
// render through core.RenderReport and core.Sweep.
//
// Serving backbone: a bounded admission queue (-queue; full returns 429
// with Retry-After), a bounded execution pool (-inflight), and a
// per-request deadline (-deadline). SIGINT/SIGTERM drains in-flight
// requests (-drain budget), then closes the run session: it flushes the
// -trace stream and -manifest and verifies the span/cache reconciliation
// invariant. bpartd exits 0 only when all of that succeeded; a second
// signal exits at once.
//
// Ops surface (-ops-addr, ops.go): /healthz, /readyz (503 while
// draining), /metrics (obs.WriteMetrics' stage and cache families plus
// the bpartd_* serving families), and net/pprof. bpartd is the only
// command that links an HTTP stack; the batch commands have no listener.
//
// bpartd is a server only; any HTTP client drives it, e.g.
//
//	curl -d '{"bench":"crc","opt":1}' http://127.0.0.1:8080/v1/partition
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"time"

	"binpart/internal/obs"
	"binpart/internal/session"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "serve the v1 API on this address (\":0\" picks a free port)")
	addrFile := flag.String("addr-file", "", "also write the bound API address to this file (removed on clean exit)")
	opsAddr := flag.String("ops-addr", "", "serve /healthz, /readyz, /metrics, pprof on this address")
	opsAddrFile := flag.String("ops-addr-file", "", "with -ops-addr, also write the bound ops address to this file (removed on clean exit)")
	queue := flag.Int("queue", 64, "admission bound: max requests admitted (waiting + executing); beyond it POSTs get 429")
	inflight := flag.Int("inflight", runtime.GOMAXPROCS(0), "execution bound: max requests partitioning concurrently")
	deadline := flag.Duration("deadline", 30*time.Second, "per-request deadline (admission wait + compute)")
	drain := flag.Duration("drain", 10*time.Second, "shutdown budget for draining in-flight requests")
	sf := session.Register(flag.CommandLine)
	flag.Parse()

	// The session watches signals from before the listeners open: a
	// SIGTERM at any point of the daemon's life runs the drain path. The
	// daemon exists first so its serving families join /metrics; it gets
	// the session's caches and recorder before any request can arrive.
	// The ops listener opens after the session and closes after it, so
	// /metrics can still be scraped during the drain.
	d := newDaemon(daemonConfig{
		Queue:    *queue,
		Inflight: *inflight,
		Deadline: *deadline,
	})
	s, err := sf.Open(session.Config{Tool: "bpartd", Args: os.Args[1:], Workers: *inflight, Record: true})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bpartd:", err)
		os.Exit(1)
	}
	d.caches, d.rec = s.Caches, s.Rec
	// A failure from here closes the session first, so the trace ends
	// complete and the manifest is written (marked interrupted).
	fatal := func(err error) {
		s.Close(true) //nolint:errcheck // err is the one reported
		fmt.Fprintln(os.Stderr, "bpartd:", err)
		os.Exit(1)
	}

	var ops *opsServer
	if *opsAddr != "" {
		ops, err = serveOps(*opsAddr, obs.MetricsSources{Rec: s.Rec, Caches: s.Caches.StatsMap}, d.WriteMetrics)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "bpartd: ops on http://%s/metrics (pprof on /debug/pprof/)\n", ops.Addr())
		ops.Handle("/healthz", http.HandlerFunc(d.handleHealthz))
		ops.Handle("/readyz", http.HandlerFunc(d.handleReadyz))
		if *opsAddrFile != "" {
			if err := os.WriteFile(*opsAddrFile, []byte(ops.Addr()), 0o644); err != nil {
				fatal(err)
			}
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	srv := &http.Server{
		Handler:           d.Mux(),
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       time.Minute,
		// No WriteTimeout: /v1/sweep streams chunks for as long as the
		// request deadline allows.
	}
	fmt.Fprintf(os.Stderr, "bpartd: serving on http://%s/v1/partition\n", ln.Addr())
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()), 0o644); err != nil {
			fatal(err)
		}
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case <-s.Interrupted():
		fmt.Fprintf(os.Stderr, "bpartd: draining (budget %v)\n", *drain)
	case err := <-serveErr:
		fatal(fmt.Errorf("serve: %v", err))
	}

	// Shutdown order: stop admitting (readyz flips 503), drain in-flight
	// requests, then close the session, which flushes observability and
	// verifies that every span the drained requests recorded reconciles
	// against the cache counters. SIGTERM is the normal stop, so the
	// manifest is marked interrupted only when the drain or a flush
	// failed.
	d.SetDraining()
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	drainErr := srv.Shutdown(ctx)
	cancel()
	if drainErr != nil {
		fmt.Fprintf(os.Stderr, "bpartd: drain incomplete: %v\n", drainErr)
	}
	closeErr := s.Close(drainErr != nil)
	if closeErr != nil {
		fmt.Fprintln(os.Stderr, "bpartd:", closeErr)
	}
	if ops != nil {
		ops.Close() //nolint:errcheck // ops scrapes are best-effort at exit
	}
	if *addrFile != "" {
		os.Remove(*addrFile)
	}
	if *opsAddrFile != "" {
		os.Remove(*opsAddrFile)
	}
	if drainErr != nil || closeErr != nil {
		fmt.Fprintln(os.Stderr, "bpartd: shutdown with errors")
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "bpartd: drained %d requests, trace reconciled, shutdown clean\n", d.Served())
}
