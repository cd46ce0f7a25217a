// Command bparts is the end-to-end binary partitioner: it takes one or
// more MIPS SBF binaries, runs the decompilation-based partitioning flow,
// prints each report, and optionally writes the generated VHDL for every
// hardware region.
//
// Usage:
//
//	bparts [-mhz 200] [-device XC2V2000] [-alg 90-10|greedy|gclp]
//	       [-j N] [-cachedir dir] [-vhdl dir] program.sbf...
//	bparts -sweep devices program.sbf...   # area sweep over the Virtex-II catalog
//	bparts -sweep clocks  program.sbf...   # CPU clock sweep (see -clocks)
//
// With several inputs the flows run concurrently over -j workers sharing
// one stage cache (identical binaries lift once); reports print in
// argument order regardless of completion order.
//
// The sweep modes analyze each binary once (profile, decompile,
// synthesize) and price every sweep point with core.Evaluate, so a
// full-catalog sweep costs barely more than a single run.
//
// Observability: -trace streams per-stage spans as JSONL (a .gz path
// gzip-compresses), -stats prints the per-stage and cache tables with
// p50/p90/p99 latency columns to stderr, -manifest writes a run
// manifest, and -debug-addr serves net/pprof + Prometheus-text
// /metrics. All of it is off — and alloc-free — by default.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"

	"binpart/internal/binimg"
	"binpart/internal/cache"
	"binpart/internal/core"
	"binpart/internal/fpga"
	"binpart/internal/obs"
	"binpart/internal/platform"
	"binpart/internal/vhdl"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command over explicit arguments and output streams,
// returning the process exit code: 2 for a usage error, 1 for any other
// failure, 0 for a clean run. A failing input does not cut the run short:
// every other report still prints, and the stats, trace trailer and
// manifest are still written before the exit code is settled.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bparts", flag.ContinueOnError)
	fs.SetOutput(stderr)
	mhz := fs.Float64("mhz", 200, "CPU clock in MHz")
	device := fs.String("device", "XC2V2000", "Virtex-II device")
	alg := fs.String("alg", "90-10", "partitioning algorithm: 90-10, greedy, gclp")
	whole := fs.Bool("whole", false, "partition whole call-free functions instead of loops")
	structure := fs.Bool("structure", false, "print recovered control structure per function")
	jumpTables := fs.Bool("jumptables", true, "recover switch jump tables at indirect jumps (=false reproduces the paper's failures)")
	vhdlDir := fs.String("vhdl", "", "directory to write VHDL for selected regions")
	workers := fs.Int("j", runtime.GOMAXPROCS(0), "worker pool size when partitioning several binaries")
	cacheDir := fs.String("cachedir", "", "directory for the on-disk stage cache (empty: memory only)")
	cacheDirMax := fs.String("cachedir-max", "", "byte budget for -cachedir (e.g. 256M); oldest-mtime blobs are evicted past it (empty: unbounded)")
	stats := fs.Bool("stats", false, "print per-stage span and cache counters to stderr")
	trace := fs.String("trace", "", "stream per-stage spans to this file as JSONL (gzip when the path ends in .gz)")
	manifestPath := fs.String("manifest", "", "write a run manifest (config, git, per-stage totals, cache accounting) to this JSON file")
	debugAddr := fs.String("debug-addr", "", "serve net/pprof + Prometheus /metrics on this address (e.g. :6060)")
	sweep := fs.String("sweep", "", "sweep mode: devices (Virtex-II catalog) or clocks (see -clocks)")
	clockList := fs.String("clocks", "40,100,200,400", "CPU clocks in MHz for -sweep clocks")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if fs.NArg() < 1 {
		fmt.Fprintln(stderr, "usage: bparts [flags] program.sbf...")
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, err)
		return 1
	}

	dev, err := fpga.ByName(*device)
	if err != nil {
		return fail(err)
	}
	opts := core.DefaultOptions()
	opts.Platform = platform.MIPS(*mhz, dev)
	if opts.Algorithm, err = core.ParseAlgorithm(*alg); err != nil {
		return fail(err)
	}
	if *whole {
		opts.Granularity = core.GranFunctions
	}
	opts.RecoverJumpTables = *jumpTables

	var clocks []float64
	switch *sweep {
	case "", "devices":
	case "clocks":
		for _, s := range strings.Split(*clockList, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil || v <= 0 {
				return fail(fmt.Errorf("bad -clocks entry %q", s))
			}
			clocks = append(clocks, v)
		}
	default:
		return fail(fmt.Errorf("unknown sweep mode %q (want devices or clocks)", *sweep))
	}

	caches := core.NewCaches()
	if *cacheDir != "" {
		var maxBytes int64
		if *cacheDirMax != "" {
			maxBytes, err = cache.ParseByteSize(*cacheDirMax)
			if err != nil {
				return fail(err)
			}
		}
		if _, err := caches.WithDiskMax(*cacheDir, maxBytes); err != nil {
			return fail(err)
		}
	}
	// A recorder only when some surface will read it; nil keeps the flow
	// on its alloc-free fast path.
	var rec *obs.Recorder
	if *trace != "" || *stats || *manifestPath != "" || *debugAddr != "" {
		rec = obs.NewRecorder()
		rec.SetTrace(obs.NewTraceID())
	}
	if *debugAddr != "" {
		dbg, err := obs.ServeDebug(*debugAddr, obs.DebugSources{
			Rec:           rec,
			Caches:        caches.StatsMap,
			DiskLatencies: caches.DiskLatencyMap,
		})
		if err != nil {
			return fail(err)
		}
		defer dbg.Close()
		fmt.Fprintf(stderr, "debug listener on http://%s/metrics (pprof on /debug/pprof/)\n", dbg.Addr())
	}
	var traceFile *obs.TraceWriter
	if *trace != "" {
		tw, err := obs.CreateTrace(*trace)
		if err != nil {
			return fail(err)
		}
		traceFile = tw
		rec.StreamTo(tw.Writer())
	}

	paths := fs.Args()
	outputs := make([]string, len(paths))
	errs := make([]error, len(paths))
	pool := *workers
	if pool < 1 {
		pool = 1
	}
	if pool > len(paths) {
		pool = len(paths)
	}
	jobCh := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < pool; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := range jobCh {
				sc := rec.Scope(paths[i], -1, worker)
				sp := sc.Start(obs.StageJob)
				if *sweep != "" {
					outputs[i], errs[i] = sweepOne(paths[i], opts, caches, *sweep, clocks, len(paths) > 1, sc)
				} else {
					outputs[i], errs[i] = partitionOne(paths[i], opts, caches, *structure, *vhdlDir, len(paths) > 1, sc)
				}
				sp.End()
			}
		}(w)
	}
	for i := range paths {
		jobCh <- i
	}
	close(jobCh)
	wg.Wait()

	code := 0
	printed := 0
	for i := range paths {
		if errs[i] != nil {
			code = fail(errs[i])
			continue
		}
		if printed > 0 {
			fmt.Fprintln(stdout)
		}
		fmt.Fprint(stdout, outputs[i])
		printed++
	}
	if *stats {
		fmt.Fprint(stderr, rec.Table())
		fmt.Fprint(stderr, caches.StatsString())
	}
	if traceFile != nil {
		rec.EmitCaches(caches.StatsMap())
		if err := rec.Flush(); err != nil {
			code = fail(fmt.Errorf("trace: %w", err))
		}
		if err := traceFile.Close(); err != nil {
			code = fail(fmt.Errorf("trace: %w", err))
		}
	}
	if *manifestPath != "" {
		m := obs.BuildManifest("bparts", args, pool, rec, caches.StatsMap())
		if err := m.Write(*manifestPath); err != nil {
			code = fail(fmt.Errorf("manifest: %w", err))
		}
	}
	return code
}

// sweepOne analyzes one binary once and prices every sweep point with
// core.Evaluate.
func sweepOne(path string, opts core.Options, caches *core.Caches,
	mode string, clocks []float64, multi bool, sc *obs.Scope) (string, error) {

	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	img, err := binimg.Unmarshal(data)
	if err != nil {
		return "", err
	}
	a, err := core.AnalyzeScoped(img, opts, caches, sc)
	if err != nil {
		return "", err
	}

	var b strings.Builder
	if multi {
		fmt.Fprintf(&b, "==> %s\n", path)
	}
	b.WriteString(core.RenderSweepHeader(mode, opts))
	var pts []core.SweepPoint
	switch mode {
	case "devices":
		pts = core.DeviceSweepPoints(a, opts, sc)
	case "clocks":
		pts = core.ClockSweepPoints(a, opts, clocks, sc)
	}
	for _, pt := range pts {
		b.WriteString(pt.Text)
	}
	return b.String(), nil
}

// partitionOne runs the flow on one binary and renders its report.
func partitionOne(path string, opts core.Options, caches *core.Caches,
	structure bool, vhdlDir string, multi bool, sc *obs.Scope) (string, error) {

	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	img, err := binimg.Unmarshal(data)
	if err != nil {
		return "", err
	}
	rep, err := core.RunScoped(img, opts, caches, sc)
	if err != nil {
		return "", err
	}

	var b strings.Builder
	if multi {
		fmt.Fprintf(&b, "==> %s\n", path)
	}
	b.WriteString(core.RenderReport(rep, structure))

	if vhdlDir != "" {
		files, err := rep.VHDL()
		if err != nil {
			return "", err
		}
		if err := os.MkdirAll(vhdlDir, 0o755); err != nil {
			return "", err
		}
		for name, text := range files {
			path := filepath.Join(vhdlDir, name+".vhd")
			if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
				return "", err
			}
			fmt.Fprintf(&b, "wrote %s\n", path)
		}
		for _, r := range rep.SelectedRegions() {
			tb, err := vhdl.EmitTestbench(r.Design)
			if err != nil {
				return "", err
			}
			path := filepath.Join(vhdlDir, r.Name+"_tb.vhd")
			if err := os.WriteFile(path, []byte(tb), 0o644); err != nil {
				return "", err
			}
			fmt.Fprintf(&b, "wrote %s\n", path)
		}
	}
	return b.String(), nil
}
