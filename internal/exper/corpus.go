package exper

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"binpart/internal/binimg"
	"binpart/internal/core"
	"binpart/internal/mcc"
	"binpart/internal/obs"
	"binpart/internal/progen"
	"binpart/internal/sim"
)

// This file is the workload-frontier harness: where T1-T4 replay the
// paper's fixed 20-benchmark suite, the corpus sweeps thousands of
// generated switch-shaped programs through the full flow and
// differentially checks every one. Each program is the subject of three
// oracles at once: the partitioning report against the reference
// simulator's ground truth, the cold (uncached) flow against the warm
// (fully cached) flow, and kernel CDFG recovery against the generator's
// promise that every emitted switch follows the jump-table idiom.

// CorpusPoint is one generated program's outcome.
type CorpusPoint struct {
	Seed     int64    `json:"seed"`
	OptLevel int      `json:"opt_level"`
	Shapes   []string `json:"shapes,omitempty"`
	// Recovered reports whether the kernel's CDFG was recovered
	// (switch-table recovery is on by default).
	Recovered bool `json:"recovered"`
	// FailReason carries the typed decompiler error (faulting PC and
	// function) when recovery failed.
	FailReason string  `json:"fail_reason,omitempty"`
	Speedup    float64 `json:"speedup"`
	Selected   int     `json:"selected"`
	// Mismatch describes a differential failure (report vs reference
	// simulator, or cold vs warm cache); empty on a clean point.
	Mismatch string `json:"mismatch,omitempty"`
}

// Corpus is the differential fuzz-corpus experiment (figure F2): n
// generated programs, compiled round-robin over -O0..-O3, each run
// through the full flow and differentially checked.
type Corpus struct {
	N        int
	BaseSeed int64
	Points   []CorpusPoint
}

// Corpus sweeps n generated programs (seeds baseSeed..baseSeed+n-1)
// through the full flow over the worker pool. Every point is checked
// three ways: the report's exit code and cycle count must equal the
// reference simulator's, an uncached run must match a cold-then-warm
// cached pair observable for observable, and kernel recovery failures
// are recorded (never fatal — the flow must degrade, not die). Points
// come back in seed order, so the formatted figure is byte-identical at
// any worker count.
//
// The sweep makes two passes over the pool: generate, compile and run
// the reference oracle for every point, then the full flow. Keeping the
// reference-stepper runs back to back measured about 8% faster than
// interleaving them with the flow stages, point by point.
func (r *Runner) Corpus(n int, baseSeed int64) (*Corpus, error) {
	if n <= 0 {
		return nil, fmt.Errorf("exper: corpus size %d", n)
	}
	caches := r.Caches
	if caches == nil {
		// The cold-vs-warm differential needs a cache even when the
		// runner is configured cacheless.
		caches = core.NewCaches()
	}

	type refPoint struct {
		prog progen.Program
		img  *binimg.Image
		ref  sim.Result
	}
	refs, err := fanOut(r.workers(), n, func(w, i int) (refPoint, error) {
		if r.interrupted.Load() {
			return refPoint{}, ErrInterrupted
		}
		seed := baseSeed + int64(i)
		lvl := i % 4
		p := progen.Generate(seed, progen.SwitchConfig())
		img, err := mcc.Compile(p.Source, mcc.Options{OptLevel: lvl})
		if err != nil {
			return refPoint{}, fmt.Errorf("corpus seed %d -O%d: compile: %w", seed, lvl, err)
		}
		// The reference-oracle simulation goes through the sim stage
		// cache like any other sim result (the engine is part of its
		// key), so a rerun over a warm cache skips the slow stepper.
		refCfg := sim.DefaultConfig()
		refCfg.Engine = sim.EngineReference
		sc := r.Obs.Scope(fmt.Sprintf("corpus/%d", seed), lvl, w)
		ref, err := core.Simulate(img, refCfg, caches, sc)
		if err != nil {
			return refPoint{}, fmt.Errorf("corpus seed %d -O%d: reference sim: %w", seed, lvl, err)
		}
		return refPoint{prog: p, img: img, ref: ref}, nil
	})
	if err != nil {
		return nil, err
	}

	pts, err := fanOut(r.workers(), n, func(w, i int) (CorpusPoint, error) {
		if r.interrupted.Load() {
			return CorpusPoint{}, ErrInterrupted
		}
		seed := baseSeed + int64(i)
		lvl := i % 4
		sc := r.Obs.Scope(fmt.Sprintf("corpus/%d", seed), lvl, w)
		sp := sc.Start(obs.StageJob)
		defer sp.End()
		return corpusPoint(seed, lvl, refs[i].prog, refs[i].img, refs[i].ref, caches, sc)
	})
	if err != nil {
		return nil, err
	}
	return &Corpus{N: n, BaseSeed: baseSeed, Points: pts}, nil
}

// corpusPoint runs one generated program through every oracle, given
// its reference-simulator result.
func corpusPoint(seed int64, lvl int, p progen.Program, img *binimg.Image, ref sim.Result, caches *core.Caches, sc *obs.Scope) (CorpusPoint, error) {
	pt := CorpusPoint{Seed: seed, OptLevel: lvl, Shapes: p.Shapes}
	opts := core.DefaultOptions()

	// Cold, uncached flow.
	cold, err := core.Run(img, opts)
	if err != nil {
		return pt, fmt.Errorf("corpus seed %d -O%d: run: %w", seed, lvl, err)
	}
	// Cold-through-cache, then fully warm.
	first, err := core.RunScoped(img, opts, caches, sc)
	if err != nil {
		return pt, fmt.Errorf("corpus seed %d -O%d: cached run: %w", seed, lvl, err)
	}
	warm, err := core.RunScoped(img, opts, caches, sc)
	if err != nil {
		return pt, fmt.Errorf("corpus seed %d -O%d: warm run: %w", seed, lvl, err)
	}

	var diffs []string
	if cold.ExitCode != ref.ExitCode {
		diffs = append(diffs, fmt.Sprintf("exit code %d != reference %d", cold.ExitCode, ref.ExitCode))
	}
	if cold.SWCycles != ref.Cycles {
		diffs = append(diffs, fmt.Sprintf("sw cycles %d != reference %d", cold.SWCycles, ref.Cycles))
	}
	want := corpusFingerprint(cold)
	if got := corpusFingerprint(first); got != want {
		diffs = append(diffs, "cold cached run differs from uncached")
	}
	if got := corpusFingerprint(warm); got != want {
		diffs = append(diffs, "warm cached run differs from uncached")
	}
	pt.Mismatch = strings.Join(diffs, "; ")

	reason, failed := cold.Recovery.FailReasons["kernel"]
	pt.Recovered = !failed
	pt.FailReason = reason
	pt.Speedup = cold.Metrics.AppSpeedup
	pt.Selected = len(cold.SelectedRegions())
	return pt, nil
}

// corpusFingerprint renders a Report's cache-relevant observables:
// everything except wall-clock times and Design pointers. Computed and
// cached runs of the same binary must produce identical fingerprints.
func corpusFingerprint(rep *core.Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "exit=%d sw=%d metrics=%+v\nrecovery=%+v\n",
		rep.ExitCode, rep.SWCycles, rep.Metrics, rep.Recovery)
	for _, r := range rep.Regions {
		fmt.Fprintf(&b, "region %s func=%s sw=%d hw=%.6f clk=%.6f inv=%d area=%d fp=%v sel=%v step=%d\n",
			r.Name, r.Func, r.SWCycles, r.HWCycles, r.HWClockNs,
			r.Invocations, r.AreaGates, r.Footprint, r.Selected, r.Step)
	}
	return b.String()
}

// speedupBuckets are the distribution bins of the corpus figure.
var speedupBuckets = []struct {
	Label string
	Max   float64 // exclusive upper bound; the last bucket is open
}{
	{"1.00x (all-sw)", 1.005},
	{"1.00-1.50x", 1.5},
	{"1.50-2.00x", 2},
	{"2.00-3.00x", 3},
	{"3.00-5.00x", 5},
	{">5.00x", 0},
}

// CorpusSummary is the aggregate view of a corpus run, also written as
// the CI artifact (JSON).
type CorpusSummary struct {
	Programs       int            `json:"programs"`
	BaseSeed       int64          `json:"base_seed"`
	Recovered      int            `json:"recovered"`
	RecoveryRate   float64        `json:"recovery_rate"`
	SwitchPrograms int            `json:"switch_programs"`
	ShapeCounts    map[string]int `json:"shape_counts"`
	Accelerated    int            `json:"accelerated"` // speedup > 1.00
	MeanSpeedup    float64        `json:"mean_speedup"`
	MaxSpeedup     float64        `json:"max_speedup"`
	Buckets        map[string]int `json:"speedup_buckets"`
	Mismatches     []string       `json:"mismatches,omitempty"`
	Failures       []string       `json:"failures,omitempty"`
}

// Summary aggregates the corpus points.
func (c *Corpus) Summary() CorpusSummary {
	s := CorpusSummary{
		Programs: c.N, BaseSeed: c.BaseSeed,
		ShapeCounts: map[string]int{}, Buckets: map[string]int{},
	}
	var sum float64
	for _, pt := range c.Points {
		if len(pt.Shapes) > 0 {
			s.SwitchPrograms++
		}
		for _, sh := range pt.Shapes {
			s.ShapeCounts[sh]++
		}
		if pt.Recovered {
			s.Recovered++
		} else {
			s.Failures = append(s.Failures,
				fmt.Sprintf("seed %d -O%d: %s", pt.Seed, pt.OptLevel, pt.FailReason))
		}
		if pt.Mismatch != "" {
			s.Mismatches = append(s.Mismatches,
				fmt.Sprintf("seed %d -O%d: %s", pt.Seed, pt.OptLevel, pt.Mismatch))
		}
		if pt.Speedup > 1.00 {
			s.Accelerated++
		}
		sum += pt.Speedup
		if pt.Speedup > s.MaxSpeedup {
			s.MaxSpeedup = pt.Speedup
		}
		for bi, bk := range speedupBuckets {
			if bi == len(speedupBuckets)-1 || pt.Speedup < bk.Max {
				s.Buckets[bk.Label]++
				break
			}
		}
	}
	if c.N > 0 {
		s.RecoveryRate = float64(s.Recovered) / float64(c.N)
		s.MeanSpeedup = sum / float64(c.N)
	}
	return s
}

// WriteSummary writes the aggregate as indented JSON (the CI artifact).
func (c *Corpus) WriteSummary(path string) error {
	data, err := json.MarshalIndent(c.Summary(), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Format renders the figure.
func (c *Corpus) Format() string {
	s := c.Summary()
	var b strings.Builder
	b.WriteString("F2  Generated switch-workload corpus (differential fuzz)\n")
	fmt.Fprintf(&b, "programs: %d (seeds %d..%d, levels -O0..-O3 round-robin)\n",
		s.Programs, c.BaseSeed, c.BaseSeed+int64(c.N)-1)
	fmt.Fprintf(&b, "shapes:   dense %d  sparse %d  fallthrough %d  in-loop %d  (switchless: %d)\n",
		s.ShapeCounts["switch-dense"], s.ShapeCounts["switch-sparse"],
		s.ShapeCounts["switch-fallthrough"], s.ShapeCounts["switch-in-loop"],
		s.Programs-s.SwitchPrograms)
	fmt.Fprintf(&b, "recovery: %d/%d kernels (%.1f%%)\n",
		s.Recovered, s.Programs, 100*s.RecoveryRate)
	if len(s.Mismatches) == 0 {
		fmt.Fprintf(&b, "differential: report==reference sim and cold==warm cache for all %d programs\n", s.Programs)
	} else {
		fmt.Fprintf(&b, "differential: %d MISMATCHES\n", len(s.Mismatches))
		for i, m := range s.Mismatches {
			if i == 5 {
				fmt.Fprintf(&b, "  ... %d more\n", len(s.Mismatches)-5)
				break
			}
			fmt.Fprintf(&b, "  %s\n", m)
		}
	}
	for _, f := range s.Failures {
		fmt.Fprintf(&b, "recovery failure: %s\n", f)
	}
	b.WriteString("speedup distribution:\n")
	max := 0
	for _, bk := range speedupBuckets {
		if n := s.Buckets[bk.Label]; n > max {
			max = n
		}
	}
	for _, bk := range speedupBuckets {
		n := s.Buckets[bk.Label]
		bar := 0
		if max > 0 {
			bar = n * 40 / max
		}
		fmt.Fprintf(&b, "  %-14s %5d %s\n", bk.Label, n, strings.Repeat("#", bar))
	}
	fmt.Fprintf(&b, "mean speedup %.2fx, max %.2fx; %d/%d accelerate\n",
		s.MeanSpeedup, s.MaxSpeedup, s.Accelerated, s.Programs)
	return b.String()
}
