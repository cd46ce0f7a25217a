package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"syscall"
	"time"

	"binpart/internal/core"
	"binpart/internal/exper"
)

const (
	// tablesPassesPerSecond fixes the tables-cold pass count per nominal
	// second: about one second of regenerations on a 2-core host.
	tablesPassesPerSecond = 10
	// tablesBlocks groups a run's passes into blocks of consecutive passes.
	tablesBlocks = 10
	// setupRepeats is how many warm-up regenerations tables-cold runs
	// before measuring; setup_s is their median.
	setupRepeats = 5
	// tracedReps repeats every in-process traced call; per-call figures
	// are medians over the repeats.
	tracedReps = 3
)

// partitionTime matches A1's measured "partition time" field, the only
// part of a full regeneration allowed to differ between passes.
var partitionTime = regexp.MustCompile(`(?m)partition time \S+$`)

func maskPartitionTimes(out []byte) []byte {
	return partitionTime.ReplaceAll(out, []byte("partition time <masked>"))
}

// t1Block is the first table of a full regeneration: everything up to
// the blank line that ends it.
func t1Block(out []byte) []byte {
	if i := bytes.Index(out, []byte("\n\n")); i >= 0 {
		return out[:i+1]
	}
	return out
}

// regenerate runs one fresh `experiments -j 2` process and returns its
// stdout and peak RSS in MB.
func regenerate(cfg config) ([]byte, float64, error) {
	cmd := exec.Command(filepath.Join(cfg.bin, "experiments"), "-j", "2")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, 0, fmt.Errorf("experiments -j 2: %v: %s", err, stderr.Bytes())
	}
	return stdout.Bytes(), maxRSSMB(cmd.ProcessState), nil
}

// maxRSSMB reads a finished child's peak resident set from its rusage.
func maxRSSMB(ps *os.ProcessState) float64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return math.NaN()
}

// runTablesCold regenerates every default table in a fresh process per
// pass. The inputs are the paper's fixed experiments, so the seed selects
// nothing here.
func runTablesCold(r *run) error {
	golden, err := os.ReadFile(filepath.Join(r.cfg.root, "internal", "exper", "testdata", "t1_golden.txt"))
	if err != nil {
		return fmt.Errorf("read T1 golden: %w", err)
	}
	if r.cfg.tamper {
		golden = append([]byte("tampered "), golden...)
	}

	// Set-up: warm-up regenerations. The first one's output is the
	// reference every later pass must reproduce byte for byte.
	var ref []byte
	var setup []float64
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		out, _, err := regenerate(r.cfg)
		if err != nil {
			return fmt.Errorf("set-up pass: %w", err)
		}
		setup = append(setup, time.Since(start).Seconds())
		if ref == nil {
			if t1 := t1Block(out); !bytes.Equal(t1, golden) {
				r.fail("T1 block differs from internal/exper/testdata/t1_golden.txt:\n%s", t1)
			}
			ref = maskPartitionTimes(out)
		} else if !bytes.Equal(maskPartitionTimes(out), ref) {
			r.fail("set-up pass %d differs from the first regeneration", i)
		}
	}

	passes := tablesPassesPerSecond * r.cfg.seconds
	lat := newSamples("regenerate", "us")
	var walls, rss []float64
	for i := 0; i < passes; i++ {
		r.attempted++
		start := time.Now()
		out, mb, err := regenerate(r.cfg)
		d := time.Since(start)
		if err != nil {
			r.failed++
			r.logf("pass %d: %v", i, err)
			continue
		}
		if !bytes.Equal(maskPartitionTimes(out), ref) {
			r.failed++
			r.logf("pass %d: output differs from the first regeneration", i)
			continue
		}
		lat.addDur(d)
		walls = append(walls, d.Seconds())
		rss = append(rss, mb)
	}

	// Each figure is the median over blocks of consecutive passes, so a
	// burst of host interference confined to a few blocks does not move
	// it. Every regeneration is a cold request: the cold-class metrics
	// read the same samples in milliseconds.
	r.logf("%s", lat.summary())
	q := func(p float64) float64 {
		return median(perPass(walls, tablesBlocks, func(b []float64) float64 {
			s := samples{v: b}
			return s.quantile(p)
		}))
	}
	r.set("setup_s", median(setup))
	r.set("wall_s", q(0.50))
	r.set("req_per_s", median(perPass(walls, tablesBlocks, func(b []float64) float64 {
		var total float64
		for _, w := range b {
			total += w
		}
		return float64(len(b)) / total
	})))
	r.set("p50_us", q(0.50)*1e6)
	r.set("p90_us", q(0.90)*1e6)
	r.set("cold_p50_ms", q(0.50)*1e3)
	r.set("cold_p90_ms", q(0.90)*1e3)
	r.set("rss_mb", median(rss))

	if r.cfg.trace {
		return traceTables(r, ref)
	}
	return nil
}

// tableCalls are the default full run's experiments in the order
// cmd/experiments prints them.
var tableCalls = []struct {
	key string
	run func(*exper.Runner) (string, error)
}{
	{"t1", func(x *exper.Runner) (string, error) { return format(x.Table1()) }},
	{"t2", func(x *exper.Runner) (string, error) { return format(x.Table2()) }},
	{"t3", func(x *exper.Runner) (string, error) { return format(x.Table3()) }},
	{"t4", func(x *exper.Runner) (string, error) { return format(x.Table4()) }},
	{"f1", func(x *exper.Runner) (string, error) { return format(x.Figure1()) }},
	{"a1", func(x *exper.Runner) (string, error) { return format(x.PartitionerComparison()) }},
	{"a2", func(x *exper.Runner) (string, error) { return format(x.PassAblation()) }},
	{"e1", func(x *exper.Runner) (string, error) { return format(x.JumpTableExtension()) }},
}

func format[T interface{ Format() string }](v T, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return v.Format(), nil
}

// traceTables times each exper.Runner table call in-process, at two
// workers and at one, each repeat on a fresh cache set like a fresh
// process. The -j 2 text must equal the children's reference output.
func traceTables(r *run, ref []byte) error {
	perTable := map[string][]float64{}
	var total1, total2 []float64
	var stats map[string]cacheCounts
	for rep := 0; rep < tracedReps; rep++ {
		for _, workers := range []int{2, 1} {
			caches := core.NewCaches()
			runner := exper.NewRunner(workers, caches)
			var text bytes.Buffer
			var total time.Duration
			for _, tc := range tableCalls {
				start := time.Now()
				out, err := tc.run(runner)
				d := time.Since(start)
				if err != nil {
					return fmt.Errorf("traced %s: %w", tc.key, err)
				}
				total += d
				text.WriteString(out + "\n") // as cmd/experiments prints it
				if workers == 2 {
					perTable[tc.key] = append(perTable[tc.key], float64(d.Nanoseconds())/1e6)
				}
			}
			if workers == 2 {
				total2 = append(total2, total.Seconds())
				stats = countsFromStats(caches)
			} else {
				total1 = append(total1, total.Seconds())
			}
			if !bytes.Equal(maskPartitionTimes(text.Bytes()), ref) {
				r.fail("in-process tables at %d workers differ from the experiments child", workers)
			}
		}
	}
	for _, tc := range tableCalls {
		r.set("exper."+tc.key+"_ms", median(perTable[tc.key]))
	}
	r.set("exper.parallel_eff", median(total1)/median(total2)/2)
	setCacheMetrics(r, stats)

	if err := tracePipeline(r, suiteSources()); err != nil {
		return err
	}
	o := newOracle(r.cfg.tamper)
	reqs, err := warmupRequests(o)
	if err != nil {
		return err
	}
	if _, err := traceWarmLayers(r, o, reqs); err != nil {
		return err
	}
	// No daemon runs on this workload: its serving layers do no work.
	r.set("bpartd.serve_us", 0)
	r.set("bpartd.retained_kb_per_1k", 0)
	return nil
}
