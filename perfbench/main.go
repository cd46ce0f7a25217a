// Command perfbench is the repository's end-to-end benchmark. It drives
// the real programs from outside — a cmd/experiments child process and a
// cmd/bpartd child process over loopback HTTP, both built from the same
// checkout by run.sh — and checks every output it gets back.
//
//	perfbench -root . -bin .bench_build/bin --workload warm-partition --seed 1 --seconds 10 --trace 0
//
// Workloads (see README.md for why each exists and which layers it loads):
//
//	tables-cold     repeated full `experiments -j 2` regenerations, each a fresh process
//	warm-partition  closed loop, 2 connections, /v1/partition on a warm Analysis cache
//	mixed-upload    the same loop with one request in 50 a raw-SBF upload new to the daemon
//
// With --trace 0 the last stdout line is a JSON object carrying every
// end-to-end metric; with --trace 1 the same workload runs and a separate
// in-process traced pass adds the per-layer metrics instead. Runs are
// bounded by pass or request counts derived from --seconds, never by a
// clock, so memory metrics measure retention per request. Any failed
// correctness gate makes the run exit 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime/debug"
	"sort"
	"strings"
)

// Metric catalogues: every name a run prints, with its unit. They mirror
// BENCHMARK.json; a run that fails to set one of them is an error.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"req_per_s", "1/s"},
	{"p50_us", "us"},
	{"p90_us", "us"},
	{"cold_p50_ms", "ms"},
	{"cold_p90_ms", "ms"},
	{"rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"mcc.compile_us", "us"},
	{"mcc.text_bytes", "bytes"},
	{"sim.execute_us", "us"},
	{"sim.ns_per_instr", "ns"},
	{"decompile.lift_us", "us"},
	{"decompile.funcs_failed", "count"},
	{"dopt.optimize_us", "us"},
	{"dopt.rewrites", "count"},
	{"synth.synthesize_us", "us"},
	{"synth.selected_frac", "ratio"},
	{"core.analyze_glue_us", "us"},
	{"core.evaluate_us", "us"},
	{"core.render_us", "us"},
	{"cache.lookup_us", "us"},
	{"cache.hit_ratio.compile", "ratio"},
	{"cache.hit_ratio.sim", "ratio"},
	{"cache.hit_ratio.lift", "ratio"},
	{"cache.hit_ratio.synth", "ratio"},
	{"cache.hit_ratio.analysis", "ratio"},
	{"cache.evictions", "count"},
	{"bpartd.decode_us", "us"},
	{"bpartd.encode_us", "us"},
	{"bpartd.serve_us", "us"},
	{"bpartd.retained_kb_per_1k", "KB"},
	{"exper.t1_ms", "ms"},
	{"exper.t2_ms", "ms"},
	{"exper.t3_ms", "ms"},
	{"exper.t4_ms", "ms"},
	{"exper.f1_ms", "ms"},
	{"exper.a1_ms", "ms"},
	{"exper.a2_ms", "ms"},
	{"exper.e1_ms", "ms"},
	{"exper.parallel_eff", "ratio"},
}

type metricDef struct{ name, unit string }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	root     string // repository root: golden files live under it
	bin      string // directory holding the experiments and bpartd binaries
	work     string // scratch directory for the children's address files
	// tamper corrupts every expected output before the run, so every
	// correctness gate must fail. It exists for the benchmark's own test.
	tamper bool
}

// run is one workload execution: operation counts, gate failures, and the
// metric values it measured.
type run struct {
	cfg       config
	log       io.Writer
	attempted int
	failed    int
	gateErrs  []string
	values    map[string]float64
}

func (r *run) set(name string, v float64) { r.values[name] = v }

// fail records a failed correctness gate; the run will exit nonzero.
func (r *run) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.gateErrs = append(r.gateErrs, msg)
	fmt.Fprintln(r.log, "GATE FAILED:", msg)
}

func (r *run) logf(format string, args ...any) { fmt.Fprintf(r.log, format+"\n", args...) }

var workloads = map[string]func(*run) error{
	"tables-cold":    runTablesCold,
	"warm-partition": runWarmPartition,
	"mixed-upload":   runMixedUpload,
}

func main() {
	// Fewer generator GC cycles: less CPU taken from the child mid-loop.
	debug.SetGCPercent(400)
	code, err := benchMain(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

// benchMain parses args, runs the workload, and prints the result line.
// It returns the exit code: 0 on a correct run, 1 when a gate failed, 2
// when the run could not complete (then no result line is printed).
func benchMain(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: tables-cold, warm-partition, or mixed-upload")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed for the workload's generated inputs")
	fs.IntVar(&cfg.seconds, "seconds", 10, "nominal run length; sets the fixed pass/request count")
	fs.IntVar(&trace, "trace", 0, "1: add the in-process traced pass and print per-layer metrics")
	fs.StringVar(&cfg.root, "root", ".", "repository root")
	fs.StringVar(&cfg.bin, "bin", ".bench_build/bin", "directory holding the experiments and bpartd binaries")
	fs.StringVar(&cfg.work, "work", ".bench_build/tmp", "scratch directory for child address files")
	fs.BoolVar(&cfg.tamper, "tamper", false, "corrupt every expected output (the benchmark's self-test)")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	cfg.trace = trace == 1
	wl, ok := workloads[cfg.workload]
	if !ok {
		return 2, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds < 1 {
		return 2, fmt.Errorf("--seconds must be at least 1")
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return 2, err
	}

	r := &run{cfg: cfg, log: stdout, values: map[string]float64{}}
	r.logf("perfbench: workload=%s seed=%d seconds=%d trace=%v", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	if err := wl(r); err != nil {
		return 2, err
	}

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res := result{
		Correct:   len(r.gateErrs) == 0 && r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	var missing []string
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, d.name)
			continue
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		r.logf("metric %-28s %14.6g %s", d.name, v, d.unit)
	}
	if len(missing) > 0 && res.Correct {
		sort.Strings(missing)
		return 2, fmt.Errorf("workload %s measured no value for %s", cfg.workload, strings.Join(missing, ", "))
	}
	if res.Attempted < 1 {
		return 2, fmt.Errorf("workload %s attempted nothing", cfg.workload)
	}
	r.logf("attempted=%d failed=%d fail_frac=%.6g gates_failed=%d", r.attempted, r.failed,
		float64(r.failed)/float64(r.attempted), len(r.gateErrs))
	line, err := json.Marshal(res)
	if err != nil {
		return 2, err
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1, fmt.Errorf("%d correctness gate(s) failed, %d of %d operations failed", len(r.gateErrs), r.failed, r.attempted)
	}
	return 0, nil
}
