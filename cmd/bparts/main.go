// Command bparts is the end-to-end binary partitioner: it takes one or
// more MIPS SBF binaries, runs the decompilation-based partitioning flow,
// prints each report, and optionally writes the generated VHDL for every
// hardware region.
//
// Usage:
//
//	bparts [-mhz 200] [-device XC2V2000] [-alg 90-10|greedy|gclp]
//	       [-j N] [-vhdl dir] program.sbf...
//	bparts -sweep devices program.sbf...   # area sweep over the Virtex-II catalog
//	bparts -sweep clocks  program.sbf...   # CPU clock sweep (see -clocks)
//
// With several inputs the flows run concurrently over -j workers sharing
// one stage cache (identical binaries lift once); reports print in
// argument order regardless of completion order.
//
// The platform, algorithm, granularity, jump-table and sweep flags fill a
// core.Request, the model bpartd decodes its JSON body into, so both
// front ends check and apply the same choices the same way. The sweep
// modes analyze each binary once (profile, decompile, synthesize) and
// price every sweep point with core.Sweep, so a full-catalog sweep costs
// barely more than a single run.
//
// Observability: -trace streams per-stage spans as JSONL (a .gz path
// gzip-compresses), -stats prints the per-stage and cache tables with
// p50/p90/p99 latency columns to stderr, -manifest writes a run
// manifest, and -debug-addr serves net/pprof + Prometheus-text
// /metrics. All of it is off — and alloc-free — by default.
//
// SIGINT/SIGTERM skips the inputs that have not started; the running
// ones finish, their reports print, the trace and manifest (marked
// interrupted) still flush, and bparts exits 128+signum. A second signal
// exits at once.
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
	"binpart/internal/core"
	"binpart/internal/obs"
	"binpart/internal/session"
	"binpart/internal/vhdl"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command over explicit arguments and output streams,
// returning the process exit code: 2 for a usage error, 128+signum after
// a signal, 1 for any other failure, 0 for a clean run. A failing input
// does not cut the run short: every other report still prints, and the
// stats, trace trailer and manifest are still written before the exit
// code is settled.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bparts", flag.ContinueOnError)
	fs.SetOutput(stderr)
	req := requestFlags(fs)
	structure := fs.Bool("structure", false, "print recovered control structure per function")
	vhdlDir := fs.String("vhdl", "", "directory to write VHDL for selected regions")
	workers := fs.Int("j", runtime.GOMAXPROCS(0), "worker pool size when partitioning several binaries")
	sf := session.Register(fs, "debug-addr", "serve net/pprof + Prometheus /metrics on this address (e.g. :6060)")
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
	opts, err := req.Options(core.DefaultOptions())
	if err != nil {
		fmt.Fprintf(stderr, "bparts: -%v\n", err)
		return 2
	}

	paths := fs.Args()
	pool := min(max(*workers, 1), len(paths))
	sess, err := sf.Open(session.Config{Tool: "bparts", Args: args, Workers: pool, Stderr: stderr})
	if err != nil {
		return fail(err)
	}

	out := output{req: req, structure: *structure, vhdlDir: *vhdlDir, multi: len(paths) > 1}
	outputs := make([]string, len(paths))
	errs := make([]error, len(paths))
	jobCh := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < pool; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := range jobCh {
				sc := sess.Rec.Scope(paths[i], -1, worker)
				sp := sc.Start(obs.StageJob)
				outputs[i], errs[i] = partitionOne(paths[i], opts, sess.Caches, out, sc)
				sp.End()
			}
		}(w)
	}
	// A signal stops the feed: inputs not yet handed to a worker are
	// skipped, the ones running finish.
	started := 0
feed:
	for ; started < len(paths); started++ {
		select {
		case jobCh <- started:
		case <-sess.Interrupted():
			break feed
		}
	}
	close(jobCh)
	wg.Wait()

	code := 0
	printed := 0
	for i := range paths[:started] {
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
	if skipped := len(paths) - started; skipped > 0 {
		fmt.Fprintf(stderr, "bparts: interrupted: skipped %d of %d inputs\n", skipped, len(paths))
	}
	if err := sess.Close(sess.Signal() != nil); err != nil {
		code = fail(err)
	}
	return sess.ExitCode(code != 0)
}

// requestFlags registers the flags that fill the run's core.Request,
// defaulting to core.DefaultOptions.
func requestFlags(fs *flag.FlagSet) *core.Request {
	def := core.DefaultOptions()
	req := &core.Request{MHz: new(float64), JumpTables: new(bool)}
	fs.Float64Var(req.MHz, "mhz", def.Platform.CPUMHz, "CPU clock in MHz")
	fs.StringVar(&req.Device, "device", def.Platform.Device.Name, "Virtex-II device")
	fs.StringVar(&req.Alg, "alg", def.Algorithm.String(), "partitioning algorithm: 90-10, greedy, gclp")
	fs.BoolVar(&req.Whole, "whole", false, "partition whole call-free functions instead of loops")
	fs.BoolVar(req.JumpTables, "jumptables", def.RecoverJumpTables, "recover switch jump tables at indirect jumps (=false reproduces the paper's failures)")
	fs.StringVar(&req.Sweep, "sweep", "", "sweep mode: devices (Virtex-II catalog) or clocks (see -clocks)")
	fs.Func("clocks", fmt.Sprintf("comma-separated CPU clocks in MHz for -sweep clocks (default %v)", core.DefaultClocks), func(s string) error {
		req.Clocks = nil
		for _, f := range strings.Split(s, ",") {
			mhz, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				return fmt.Errorf("bad entry %q", f)
			}
			req.Clocks = append(req.Clocks, mhz)
		}
		return nil
	})
	return req
}

// output is what a report shows: the request's sweep, if any, the
// recovered structure, the VHDL directory, and whether several inputs
// need "==> path" headers.
type output struct {
	req       *core.Request
	structure bool
	vhdlDir   string
	multi     bool
}

// partitionOne runs the flow on one binary and renders its report. A
// sweep analyzes the binary once and prices every sweep point with
// core.Evaluate.
func partitionOne(path string, opts core.Options, caches *core.Caches, out output, sc *obs.Scope) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	img, err := binimg.Unmarshal(data)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	if out.multi {
		fmt.Fprintf(&b, "==> %s\n", path)
	}
	if out.req.Sweep != "" {
		a, err := core.AnalyzeScoped(img, opts, caches, sc)
		if err != nil {
			return "", err
		}
		header, pts := core.Sweep(a, opts, out.req.Sweep, out.req.Clocks, sc)
		b.WriteString(header)
		for _, pt := range pts {
			b.WriteString(pt.Text)
		}
		return b.String(), nil
	}
	rep, err := core.RunScoped(img, opts, caches, sc)
	if err != nil {
		return "", err
	}
	b.WriteString(core.RenderReport(rep, out.structure))

	if vhdlDir := out.vhdlDir; vhdlDir != "" {
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
