// Command experiments regenerates the paper's tables and figures (see
// DESIGN.md's experiment index).
//
// Usage:
//
//	experiments              # everything
//	experiments -table 1     # one table (1-4)
//	experiments -figure 1    # the area-sweep figure
//	experiments -ablation    # partitioner + pass ablations
//	experiments -corpus 1000 # differential fuzz corpus of generated programs
//	experiments -corpus 1000 -corpus-seed 7 -corpus-out sum.json
//	experiments -engines     # simulator engine ablation (batched, differential)
//	experiments -j 8         # fan sweep points over 8 workers
//	experiments -cachedir d  # persist the stage cache under d
//	experiments -cachedir d -cachedir-max 256M  # bound it (oldest-mtime eviction)
//	experiments -cache-serve :9736 # run a shared cache server (shard of a cluster)
//	experiments -cache-addr-file f # also write the server's bound address to f
//	experiments -remote-cache host:9736[,host2:9736]  # share the stage cache with peers
//	experiments -dist 4 -remote-cache host:9736       # fan the sweep over 4 worker
//	                                                  # processes sharing one cache,
//	                                                  # then render from the warm cache
//	experiments -cache-serve :9736 -cache-metrics-addr :9100  # plus a /metrics
//	                                                          # sidecar on the server
//	experiments -trace t.jsonl     # stream per-stage spans as JSONL (.gz gzips)
//	experiments -trace-id 8f3a...  # join an existing trace instead of minting one
//	experiments -dist 4 -remote-cache host:9736 -trace-merge run.jsonl
//	                               # merge parent+worker spans onto one timeline
//	                               # and reconcile them against cache counters
//	experiments -stats             # per-stage span + cache tables (p50/p90/p99) to stderr
//	experiments -manifest m.json   # write the run manifest (config, git, totals)
//	experiments -debug-addr :6060  # expvar + net/pprof + /metrics for long sweeps
//	experiments -scrape url        # fetch a /metrics URL and print it (for scripts)
//	experiments -cpuprofile p.out  # write a pprof CPU profile of the run
//	experiments -memprofile m.out  # write a pprof heap profile at exit
//
// Tables are byte-identical at any -j and with tracing on or off: the
// executor reassembles rows in submission order and the recorder only
// observes. The stage cache is shared by every experiment in one
// invocation, so the full run lifts each distinct binary once.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync/atomic"
	"syscall"

	"binpart/internal/cache"
	"binpart/internal/core"
	"binpart/internal/exper"
	"binpart/internal/obs"
)

func main() {
	table := flag.Int("table", 0, "run a single table (1-4)")
	figure := flag.Int("figure", 0, "run a single figure (1)")
	ablation := flag.Bool("ablation", false, "run the ablation studies")
	extension := flag.Bool("extension", false, "run the jump-table recovery extension experiment")
	corpusN := flag.Int("corpus", 0, "sweep N generated switch-shaped programs through the differential corpus (0: off)")
	corpusSeed := flag.Int64("corpus-seed", 1, "first generator seed for -corpus")
	corpusOut := flag.String("corpus-out", "", "write the corpus summary (recovery rate, speedup distribution, mismatches) to this JSON file")
	engines := flag.Bool("engines", false, "run the simulator engine ablation (batched differential of the threaded engine against the reference)")
	workers := flag.Int("j", runtime.GOMAXPROCS(0), "worker pool size for experiment sweeps")
	cacheDir := flag.String("cachedir", "", "directory for the on-disk stage cache (empty: memory only)")
	cacheDirMax := flag.String("cachedir-max", "", "byte budget for -cachedir (e.g. 256M); oldest-mtime blobs are evicted past it (empty: unbounded)")
	cacheServe := flag.String("cache-serve", "", "run as a shared cache server on this address (e.g. :9736 or 127.0.0.1:0) instead of running experiments")
	cacheAddrFile := flag.String("cache-addr-file", "", "with -cache-serve, also write the bound address to this file (for :0 ports)")
	remoteCache := flag.String("remote-cache", "", "comma-separated cache-server addresses to share the stage cache with (keys are consistent-hash sharded across them)")
	dist := flag.Int("dist", 0, "fan the sweep over N worker processes sharing -remote-cache, then render from the warm cache")
	distShard := flag.String("dist-shard", "", "internal: run as shard k/N of a distributed sweep (set by -dist)")
	stats := flag.Bool("stats", false, "print per-stage span and cache counters to stderr")
	cacheStats := flag.Bool("cachestats", false, "alias for -stats (the old cache-only counters)")
	trace := flag.String("trace", "", "stream per-stage spans to this file as JSONL (gzip when the path ends in .gz)")
	traceID := flag.String("trace-id", "", "tag spans with this run/trace ID (minted automatically when tracing; set by -dist for workers)")
	traceMerge := flag.String("trace-merge", "", "with -dist, merge the workers' traces and this process's spans into one trace file at this path (gzip when .gz)")
	manifestPath := flag.String("manifest", "", "write a run manifest (config, git, per-stage totals, cache accounting) to this JSON file")
	debugAddr := flag.String("debug-addr", "", "serve expvar + net/pprof + Prometheus /metrics on this address (e.g. :6060) for long sweeps")
	cacheMetricsAddr := flag.String("cache-metrics-addr", "", "with -cache-serve, serve Prometheus text on this address's /metrics (e.g. :0)")
	cacheMetricsAddrFile := flag.String("cache-metrics-addr-file", "", "with -cache-metrics-addr, also write the bound metrics address to this file")
	scrape := flag.String("scrape", "", "fetch this URL, print the body to stdout, and exit (curl-free /metrics scraping for scripts)")
	noCache := flag.Bool("nocache", false, "disable the stage cache entirely")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	flag.Parse()

	// Scrape mode: a tiny HTTP GET so scripts (distcache-smoke) can read
	// /metrics without curl or wget on the host.
	if *scrape != "" {
		resp, err := http.Get(*scrape)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer resp.Body.Close()
		if _, err := io.Copy(os.Stdout, resp.Body); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if resp.StatusCode != http.StatusOK {
			fmt.Fprintf(os.Stderr, "scrape: %s: %s\n", *scrape, resp.Status)
			os.Exit(1)
		}
		return
	}

	// Signals are watched from the start of the run, not just in server
	// mode: an unhandled SIGINT/SIGTERM mid-sweep would die by default
	// termination and silently lose the partially written -trace and
	// -manifest. The channel buffers two so a signal delivered before the
	// handling goroutine starts is not dropped.
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)

	parseMax := func() int64 {
		if *cacheDirMax == "" {
			return 0
		}
		n, err := cache.ParseByteSize(*cacheDirMax)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return n
	}

	// Server mode: serve the shared cache protocol until interrupted,
	// then print the per-tier counters and exit cleanly.
	if *cacheServe != "" {
		srv, err := cache.ListenAndServe(*cacheServe, cache.ServerConfig{
			Dir:         *cacheDir,
			DirMaxBytes: parseMax(),
			MetricsAddr: *cacheMetricsAddr,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "cache server listening on %s\n", srv.Addr())
		if *cacheAddrFile != "" {
			if err := os.WriteFile(*cacheAddrFile, []byte(srv.Addr()), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		if ma := srv.MetricsAddr(); ma != "" {
			fmt.Fprintf(os.Stderr, "cache server metrics on http://%s/metrics\n", ma)
			if *cacheMetricsAddrFile != "" {
				if err := os.WriteFile(*cacheMetricsAddrFile, []byte(ma), 0o644); err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
			}
		}
		<-sigCh
		stats, _ := json.Marshal(srv.Stats())
		fmt.Fprintf(os.Stderr, "cache server stats: %s\n", stats)
		srv.Close()
		// The addr files exist so scripts can find the bound ports; a
		// clean shutdown removes them so a stale file never points a
		// later run at a dead server.
		if *cacheAddrFile != "" {
			os.Remove(*cacheAddrFile)
		}
		if *cacheMetricsAddrFile != "" {
			os.Remove(*cacheMetricsAddrFile)
		}
		return
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live heap before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	caches := core.NewCaches()
	if *noCache {
		caches = nil
	} else if *cacheDir != "" {
		if _, err := caches.WithDiskMax(*cacheDir, parseMax()); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	// Trace context: every observable run gets a trace ID. A -dist parent
	// mints one and hands it to the workers (and to the cache servers via
	// the HELLO handshake); a worker inherits it through -trace-id.
	needObs := *trace != "" || *traceMerge != "" || *stats || *cacheStats || *manifestPath != "" || *debugAddr != ""
	runTrace := *traceID
	if runTrace == "" && (needObs || *dist > 1) {
		runTrace = obs.NewTraceID()
	}

	var remote *cache.RemoteTier
	if *remoteCache != "" && caches != nil {
		rt, err := cache.NewRemoteTier(strings.Split(*remoteCache, ","), cache.RemoteConfig{TraceID: runTrace})
		if err == nil {
			err = rt.Ping()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		// Sweeps never emit VHDL, so the Analysis stage is shared too —
		// that is what makes a distributed sweep's re-run run warm.
		caches.WithRemote(rt, true)
		remote = rt
		defer rt.Close()
	}

	// The recorder exists only when some surface will read it; a nil
	// recorder keeps the pipeline on its alloc-free fast path.
	var rec *obs.Recorder
	if needObs {
		rec = obs.NewRecorder()
		rec.SetTrace(runTrace, *distShard)
	}
	var traceFile *obs.TraceWriter
	if *trace != "" {
		tw, err := obs.CreateTrace(*trace)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		traceFile = tw
		rec.StreamTo(tw.Writer())
	}
	if *debugAddr != "" {
		dbg, err := obs.ServeDebug(*debugAddr, obs.DebugSources{
			Rec:           rec,
			Caches:        caches.StatsMap,
			TierLatencies: caches.TierLatencyMap,
			Peers: func() []cache.PeerMetrics {
				if remote == nil {
					return nil
				}
				return remote.PeerMetrics()
			},
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer dbg.Close()
		fmt.Fprintf(os.Stderr, "debug listener on http://%s/debug/vars (metrics on /metrics)\n", dbg.Addr())
	}

	runner := exper.NewRunner(*workers, caches)
	runner.Obs = rec

	// First signal: cancel the sweep — queued points fail fast with
	// ErrInterrupted, in-flight ones drain, and the tail below still
	// flushes the trace and writes the manifest (marked interrupted)
	// before exiting nonzero. Second signal: give up and exit hard.
	var gotSig atomic.Value
	go func() {
		s := <-sigCh
		gotSig.Store(s)
		fmt.Fprintf(os.Stderr, "experiments: %v: cancelling run (trace/manifest will still flush; signal again to force exit)\n", s)
		runner.Interrupt()
		<-sigCh
		fmt.Fprintln(os.Stderr, "experiments: second signal: exiting immediately")
		os.Exit(2)
	}()

	if *distShard != "" {
		var k, m int
		if _, err := fmt.Sscanf(*distShard, "%d/%d", &k, &m); err != nil || m < 1 || k < 0 || k >= m {
			fmt.Fprintf(os.Stderr, "bad -dist-shard %q (want k/N)\n", *distShard)
			os.Exit(1)
		}
		runner.ShardIndex, runner.ShardCount = k, m
	}
	var workerTraces []string
	if *dist > 1 {
		if *remoteCache == "" {
			fmt.Fprintln(os.Stderr, "-dist needs -remote-cache: the workers converge on the shared server")
			os.Exit(1)
		}
		// With -trace-merge, each worker streams its spans to a private
		// file the parent merges after the warm re-run.
		traceDir := ""
		if *traceMerge != "" {
			dir, err := os.MkdirTemp("", "binpart-dist-trace-")
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			defer os.RemoveAll(dir)
			traceDir = dir
		}
		paths, err := distFanOut(*dist, runTrace, traceDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		workerTraces = paths
		// Fall through: the workers warmed the shared cache; this process
		// now runs the full sweep served from it and renders the
		// canonical output (byte-identical to a serial run by
		// construction, since rendering never depends on who computed).
	}

	all := *table == 0 && *figure == 0 && !*ablation && !*extension && *corpusN == 0 && !*engines
	// A failure no longer exits on the spot: it skips the remaining
	// experiments and falls through to the tail, so the trace and
	// manifest always flush — the exit code is settled at the bottom.
	failed := false
	run := func(name string, f func() (fmt.Stringer, error)) {
		if failed {
			return
		}
		out, err := f()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			failed = true
			return
		}
		fmt.Println(out)
	}

	if all || *table == 1 {
		run("table 1", func() (fmt.Stringer, error) { return wrap(runner.Table1()) })
	}
	if all || *table == 2 {
		run("table 2", func() (fmt.Stringer, error) { return wrap(runner.Table2()) })
	}
	if all || *table == 3 {
		run("table 3", func() (fmt.Stringer, error) { return wrap(runner.Table3()) })
	}
	if all || *table == 4 {
		run("table 4", func() (fmt.Stringer, error) { return wrap(runner.Table4()) })
	}
	if all || *figure == 1 {
		run("figure 1", func() (fmt.Stringer, error) { return wrap(runner.Figure1()) })
	}
	if all || *ablation {
		run("ablation 1", func() (fmt.Stringer, error) { return wrap(runner.PartitionerComparison()) })
		run("ablation 2", func() (fmt.Stringer, error) { return wrap(runner.PassAblation()) })
	}
	if all || *extension {
		run("extension 1", func() (fmt.Stringer, error) { return wrap(runner.JumpTableExtension()) })
	}
	// Like the corpus, the ablation runs only when asked for: its table
	// contains measured wall/CPU times, which would break the
	// serial-vs-parallel byte-identity of the default full run.
	if *engines && !failed {
		switch abl, err := runner.EngineAblation(); {
		case err != nil:
			fmt.Fprintf(os.Stderr, "engine ablation: %v\n", err)
			failed = true
		default:
			fmt.Println(abl.Format())
			// The ablation is a differential gate: the threaded engine
			// deviating from the reference stepper fails the run.
			if !abl.Identical() {
				fmt.Fprintln(os.Stderr, "engine ablation: engines are not bit-identical")
				failed = true
			}
		}
	}
	if *corpusN > 0 && !failed {
		switch corpus, err := runner.Corpus(*corpusN, *corpusSeed); {
		case err != nil:
			fmt.Fprintf(os.Stderr, "corpus: %v\n", err)
			failed = true
		default:
			fmt.Println(corpus.Format())
			if *corpusOut != "" {
				if err := corpus.WriteSummary(*corpusOut); err != nil {
					fmt.Fprintf(os.Stderr, "corpus summary: %v\n", err)
					failed = true
				}
			}
			// A corpus invocation is a differential gate, not just a report:
			// any mismatch or a recovery rate below 99% fails the run.
			if s := corpus.Summary(); len(s.Mismatches) > 0 || s.RecoveryRate < 0.99 {
				fmt.Fprintf(os.Stderr, "corpus: %d mismatches, recovery rate %.2f%%\n",
					len(s.Mismatches), 100*s.RecoveryRate)
				failed = true
			}
		}
	}

	if *stats || *cacheStats {
		fmt.Fprint(os.Stderr, rec.Table())
		fmt.Fprint(os.Stderr, caches.StatsString())
		if remote != nil {
			if ps, err := remote.StatsFromPeers(); err == nil {
				data, _ := json.Marshal(ps)
				fmt.Fprintf(os.Stderr, "remote peers: %s (transport errors: %d)\n", data, remote.Errs())
			}
		}
	}
	if traceFile != nil {
		// The accounting trailer lets any reader of this trace reconcile
		// span outcomes against the cache counters — and is what the
		// distributed merge sums across workers. This flush runs even for
		// a failed or interrupted sweep: a partial trace that reconciles
		// is evidence, a vanished one is a bug.
		rec.EmitCaches(caches.StatsMap())
		if err := rec.Flush(); err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			failed = true
		}
		if err := traceFile.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			failed = true
		}
	}
	if *traceMerge != "" && !failed {
		if err := writeMergedTrace(*traceMerge, rec, caches, workerTraces); err != nil {
			fmt.Fprintf(os.Stderr, "trace-merge: %v\n", err)
			failed = true
		}
	}
	if *manifestPath != "" {
		m := obs.BuildManifest("experiments", os.Args[1:], *workers, rec, caches.StatsMap())
		m.Interrupted = gotSig.Load() != nil
		if err := m.Write(*manifestPath); err != nil {
			fmt.Fprintf(os.Stderr, "manifest: %v\n", err)
			failed = true
		}
	}
	// Exit code: 128+signum for a signal-cancelled run (the shell
	// convention), 1 for any other failure, 0 only for a clean sweep.
	if s := gotSig.Load(); s != nil {
		code := 130
		if sn, ok := s.(syscall.Signal); ok {
			code = 128 + int(sn)
		}
		os.Exit(code)
	}
	if failed {
		os.Exit(1)
	}
}

// distFanOut launches n sharded copies of this binary, each owning a
// 1/n slice of every requested sweep, and waits for them all. The
// workers exist to warm the shared remote cache: their stdout is
// discarded (the parent renders the canonical output afterwards) and
// output-only flags are stripped from their command lines. traceID is
// handed to every worker; when traceDir is set each worker also streams
// its spans to a file there, and the returned paths (in shard order)
// feed the parent's merge.
func distFanOut(n int, traceID, traceDir string) ([]string, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	// Flags the children must not inherit: orchestration (re-fanning out
	// would fork-bomb) and output artifacts (the parent owns those).
	// trace and trace-id are re-added per worker below.
	drop := map[string]bool{
		"dist": true, "dist-shard": true,
		"manifest": true, "trace": true, "trace-id": true, "trace-merge": true,
		"stats": true, "cachestats": true,
		"debug-addr": true, "corpus-out": true,
		"cpuprofile": true, "memprofile": true,
		"cache-serve": true, "cache-addr-file": true,
		"cache-metrics-addr": true, "cache-metrics-addr-file": true, "scrape": true,
	}
	var base []string
	flag.Visit(func(f *flag.Flag) {
		if !drop[f.Name] {
			base = append(base, "-"+f.Name+"="+f.Value.String())
		}
	})
	if traceID != "" {
		base = append(base, "-trace-id="+traceID)
	}
	var paths []string
	procs := make([]*exec.Cmd, n)
	for k := 0; k < n; k++ {
		args := append(append([]string{}, base...), fmt.Sprintf("-dist-shard=%d/%d", k, n))
		if traceDir != "" {
			p := filepath.Join(traceDir, fmt.Sprintf("shard-%d.jsonl", k))
			args = append(args, "-trace="+p)
			paths = append(paths, p)
		}
		cmd := exec.Command(exe, args...)
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("dist worker %d/%d: %w", k, n, err)
		}
		procs[k] = cmd
	}
	var firstErr error
	for k, cmd := range procs {
		if err := cmd.Wait(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("dist worker %d/%d: %w", k, n, err)
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return paths, nil
}

// writeMergedTrace combines this process's spans and cache accounting
// with every worker's trace file into one coherent run trace, verifies
// the span/cache reconciliation invariant on the merged view, and writes
// it to path (gzipped when the path ends in .gz).
func writeMergedTrace(path string, rec *obs.Recorder, caches *core.Caches, workerTraces []string) error {
	parent := &obs.TraceFile{
		Trace:       rec.TraceID(),
		Proc:        "parent",
		EpochUnixUS: rec.EpochUnixMicro(),
		Spans:       rec.Records(),
		Caches:      caches.StatsMap(),
	}
	parts := []*obs.TraceFile{parent}
	for _, p := range workerTraces {
		tf, err := obs.ReadTrace(p)
		if err != nil {
			return err
		}
		parts = append(parts, tf)
	}
	merged, err := obs.MergeTraces(parts)
	if err != nil {
		return err
	}
	if err := merged.WriteFile(path); err != nil {
		return err
	}
	if err := merged.Reconcile(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "trace-merge: %d spans from %d procs reconciled into %s\n",
		len(merged.Spans), len(parts), path)
	return nil
}

// formatter adapts the exper result types to fmt.Stringer.
type formatter struct{ format func() string }

func (f formatter) String() string { return f.format() }

func wrap[T interface{ Format() string }](v T, err error) (fmt.Stringer, error) {
	if err != nil {
		return nil, err
	}
	return formatter{v.Format}, nil
}
