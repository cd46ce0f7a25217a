// Command bpartd serves the partitioner: a long-running HTTP daemon in
// front of the analyze-once/evaluate-in-microseconds flow and its stage
// caches.
//
//	POST /v1/partition  {"bench":"crc","opt":1,...}   -> priced partition report as JSON
//	POST /v1/sweep      {"bench":"crc","sweep":"devices",...} -> per-point results as
//	                    chunked ndjson (header line, one line per point, done line)
//
// The report text inside the responses is byte-identical to what the
// bparts CLI prints for the same inputs — both render through
// core.RenderReport and friends.
//
// Serving backbone: a bounded admission queue (-queue; full returns 429
// with Retry-After), a bounded execution pool (-inflight), and a
// per-request deadline (-deadline). SIGINT/SIGTERM drains in-flight
// requests (-drain budget), flushes the -trace stream and -manifest,
// verifies the span/cache reconciliation invariant, and exits 0 only
// when all of that succeeded.
//
// Ops surface (-ops-addr): /healthz, /readyz (503 while draining),
// /metrics (the shared binpart exposition plus bpartd_* serving
// families), and net/pprof — obs.ServeDebug promoted to a daemon
// lifecycle.
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
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"binpart/internal/cache"
	"binpart/internal/core"
	"binpart/internal/fpga"
	"binpart/internal/obs"
	"binpart/internal/platform"
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
	mhz := flag.Float64("mhz", 200, "default CPU clock in MHz (request \"mhz\" overrides)")
	device := flag.String("device", "XC2V2000", "default Virtex-II device (request \"device\" overrides)")
	alg := flag.String("alg", "90-10", "default partitioning algorithm (request \"alg\" overrides)")
	cacheDir := flag.String("cachedir", "", "directory for the on-disk stage cache (empty: memory only)")
	cacheDirMax := flag.String("cachedir-max", "", "byte budget for -cachedir (e.g. 256M)")
	trace := flag.String("trace", "", "stream per-stage spans to this file as JSONL (gzip when the path ends in .gz; flushed on shutdown)")
	manifestPath := flag.String("manifest", "", "write a run manifest to this JSON file on shutdown")
	stats := flag.Bool("stats", false, "print per-stage span and cache counters to stderr on shutdown")
	flag.Parse()

	// Signals are watched from before the listener opens: a SIGTERM at
	// any point of the daemon's life must run the drain path, not die by
	// default termination with the trace and manifest unwritten.
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)

	fatal := func(err error) {
		fmt.Fprintln(os.Stderr, "bpartd:", err)
		os.Exit(1)
	}

	dev, err := fpga.ByName(*device)
	if err != nil {
		fatal(err)
	}
	opts := core.DefaultOptions()
	opts.Platform = platform.MIPS(*mhz, dev)
	if opts.Algorithm, err = core.ParseAlgorithm(*alg); err != nil {
		fatal(err)
	}

	caches := core.NewCaches()
	if *cacheDir != "" {
		var maxBytes int64
		if *cacheDirMax != "" {
			if maxBytes, err = cache.ParseByteSize(*cacheDirMax); err != nil {
				fatal(err)
			}
		}
		if _, err := caches.WithDiskMax(*cacheDir, maxBytes); err != nil {
			fatal(err)
		}
	}

	rec := obs.NewRecorder()
	rec.SetTrace(obs.NewTraceID())

	var traceFile *obs.TraceWriter
	if *trace != "" {
		tw, err := obs.CreateTrace(*trace)
		if err != nil {
			fatal(err)
		}
		traceFile = tw
		rec.StreamTo(tw.Writer())
	}

	d := newDaemon(daemonConfig{
		Opts:     opts,
		Caches:   caches,
		Rec:      rec,
		Queue:    *queue,
		Inflight: *inflight,
		Deadline: *deadline,
	})

	var dbg *obs.DebugServer
	if *opsAddr != "" {
		dbg, err = obs.ServeDebug(*opsAddr, obs.DebugSources{
			Rec:           rec,
			Caches:        caches.StatsMap,
			DiskLatencies: caches.DiskLatencyMap,
			Extra:         d.WriteMetrics,
		})
		if err != nil {
			fatal(err)
		}
		dbg.Handle("/healthz", http.HandlerFunc(d.handleHealthz))
		dbg.Handle("/readyz", http.HandlerFunc(d.handleReadyz))
		fmt.Fprintf(os.Stderr, "bpartd: ops on http://%s/metrics\n", dbg.Addr())
		if *opsAddrFile != "" {
			if err := os.WriteFile(*opsAddrFile, []byte(dbg.Addr()), 0o644); err != nil {
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
	case s := <-sigCh:
		fmt.Fprintf(os.Stderr, "bpartd: %v: draining (budget %v)\n", s, *drain)
	case err := <-serveErr:
		fatal(fmt.Errorf("serve: %v", err))
	}

	// Shutdown order: stop admitting (readyz flips 503), drain in-flight
	// requests, then flush observability and verify the reconciliation
	// invariant — traces and manifests must capture every span the
	// drained requests recorded.
	clean := true
	d.SetDraining()
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "bpartd: drain incomplete: %v\n", err)
		clean = false
	}
	cancel()

	if *stats {
		fmt.Fprint(os.Stderr, rec.Table())
		fmt.Fprint(os.Stderr, caches.StatsString())
	}
	if traceFile != nil {
		rec.EmitCaches(caches.StatsMap())
		if err := rec.Flush(); err != nil {
			fmt.Fprintf(os.Stderr, "bpartd: trace: %v\n", err)
			clean = false
		}
		if err := traceFile.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "bpartd: trace: %v\n", err)
			clean = false
		}
	}
	// The invariant that makes the trace trustworthy: every span outcome
	// the drained requests recorded reconciles against the cache
	// counters. A daemon that drops spans on shutdown fails here.
	if err := rec.Reconcile(caches.StatsMap()); err != nil {
		fmt.Fprintf(os.Stderr, "bpartd: %v\n", err)
		clean = false
	}
	if *manifestPath != "" {
		m := obs.BuildManifest("bpartd", os.Args[1:], *inflight, rec, caches.StatsMap())
		m.Interrupted = !clean
		if err := m.Write(*manifestPath); err != nil {
			fmt.Fprintf(os.Stderr, "bpartd: manifest: %v\n", err)
			clean = false
		}
	}
	if dbg != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		dbg.Shutdown(ctx) //nolint:errcheck // ops scrapes are best-effort at exit
		cancel()
	}
	if *addrFile != "" {
		os.Remove(*addrFile)
	}
	if *opsAddrFile != "" {
		os.Remove(*opsAddrFile)
	}
	if !clean {
		fmt.Fprintln(os.Stderr, "bpartd: shutdown with errors")
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "bpartd: drained %d requests, trace reconciled, shutdown clean\n", d.Served())
}
