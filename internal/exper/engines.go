package exper

import (
	"fmt"
	"strings"
	"time"

	"binpart/internal/bench"
	"binpart/internal/binimg"
	"binpart/internal/core"
	"binpart/internal/sim"
)

// This file is the simulator engine ablation (experiment E2): every
// suite benchmark at every optimization level, simulated by both
// engines as one multi-core batch each. The reference stepper is the
// oracle; the threaded engine must be bit-identical to it — same steps,
// cycles, exit code, and full profile (instruction counts and taken
// edges) — and the experiment reports each engine's wall and CPU time.

// EngineRun is one engine's outcome over the whole sweep.
type EngineRun struct {
	Engine string
	// Wall is the batch's wall time across the worker pool; CPU is the
	// per-job simulation time summed over the batch.
	Wall time.Duration
	CPU  time.Duration
	// Steps is the total instructions retired across the sweep —
	// identical for both engines, by construction.
	Steps uint64
	// Mismatches lists bit-identity violations against the reference
	// oracle; empty on a clean run.
	Mismatches []string
}

// EngineAblation is the engine-differential experiment: points is the
// sweep size (suite benchmarks x opt levels), one EngineRun per engine
// in reference, threaded order.
type EngineAblation struct {
	Points int
	Runs   []EngineRun
}

// RunEngineAblation executes the engine ablation serially.
func RunEngineAblation() (*EngineAblation, error) { return defaultRunner.EngineAblation() }

// EngineAblation compiles the suite at every optimization level, then
// runs the whole image set through each engine as one sim.RunBatch and
// differentially compares the threaded engine against the reference
// stepper.
func (r *Runner) EngineAblation() (*EngineAblation, error) {
	var jobs []rowJob
	for _, b := range bench.All() {
		for lvl := 0; lvl <= 3; lvl++ {
			jobs = append(jobs, rowJob{bench: b, level: lvl, opts: core.DefaultOptions()})
		}
	}
	imgs, err := fanOut(r.workers(), len(jobs), func(w, i int) (*binimg.Image, error) {
		if r.interrupted.Load() {
			return nil, ErrInterrupted
		}
		return r.compile(jobs[i], r.scope(jobs[i], w))
	})
	if err != nil {
		return nil, err
	}

	cfg := sim.DefaultConfig()
	cfg.Profile = true
	e := &EngineAblation{Points: len(jobs)}
	var refs []sim.BatchResult
	for _, eng := range []sim.Engine{sim.EngineReference, sim.EngineThreaded} {
		ecfg := cfg
		ecfg.Engine = eng
		bjobs := make([]sim.BatchJob, len(imgs))
		for i, img := range imgs {
			bjobs[i] = sim.BatchJob{Img: img, Cfg: ecfg}
		}
		start := time.Now()
		results := sim.RunBatch(bjobs, r.workers())
		run := EngineRun{Engine: eng.String(), Wall: time.Since(start)}
		for i, br := range results {
			point := fmt.Sprintf("%s -O%d", jobs[i].bench.Name, jobs[i].level)
			if br.Err != nil {
				run.Mismatches = append(run.Mismatches, fmt.Sprintf("%s: %v", point, br.Err))
				continue
			}
			run.CPU += br.Dur
			run.Steps += br.Res.Steps
			if eng != sim.EngineReference {
				if d := diffResults(refs[i].Res, br.Res); d != "" {
					run.Mismatches = append(run.Mismatches, fmt.Sprintf("%s: %s", point, d))
				}
			}
		}
		if eng == sim.EngineReference {
			refs = results
		}
		e.Runs = append(e.Runs, run)
	}
	return e, nil
}

// diffResults compares one engine result against the reference oracle,
// down to the full profile maps. Empty means bit-identical.
func diffResults(ref, got sim.Result) string {
	var diffs []string
	if got.Steps != ref.Steps {
		diffs = append(diffs, fmt.Sprintf("steps %d != %d", got.Steps, ref.Steps))
	}
	if got.Cycles != ref.Cycles {
		diffs = append(diffs, fmt.Sprintf("cycles %d != %d", got.Cycles, ref.Cycles))
	}
	if got.ExitCode != ref.ExitCode {
		diffs = append(diffs, fmt.Sprintf("exit %d != %d", got.ExitCode, ref.ExitCode))
	}
	switch {
	case (got.Profile == nil) != (ref.Profile == nil):
		diffs = append(diffs, "profile presence differs")
	case got.Profile != nil:
		if !mapsEqual(got.Profile.InstCount, ref.Profile.InstCount) {
			diffs = append(diffs, "InstCount differs")
		}
		if !mapsEqual(got.Profile.EdgeCount, ref.Profile.EdgeCount) {
			diffs = append(diffs, "EdgeCount differs")
		}
	}
	return strings.Join(diffs, "; ")
}

func mapsEqual[K comparable](a, b map[K]uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// Identical reports whether the threaded engine matched the oracle.
func (e *EngineAblation) Identical() bool {
	for _, run := range e.Runs {
		if len(run.Mismatches) > 0 {
			return false
		}
	}
	return true
}

// Format renders the ablation.
func (e *EngineAblation) Format() string {
	var b strings.Builder
	b.WriteString("E2  Simulator engine ablation (suite x -O0..-O3, batched across cores)\n")
	fmt.Fprintf(&b, "%-10s %12s %12s %14s %9s\n",
		"engine", "wall", "cpu", "steps", "speedup")
	var refCPU time.Duration
	for _, run := range e.Runs {
		if run.Engine == sim.EngineReference.String() {
			refCPU = run.CPU
		}
		speedup := "-"
		if refCPU > 0 && run.CPU > 0 {
			speedup = fmt.Sprintf("%.2fx", float64(refCPU)/float64(run.CPU))
		}
		fmt.Fprintf(&b, "%-10s %12s %12s %14d %9s\n",
			run.Engine, run.Wall.Round(time.Millisecond), run.CPU.Round(time.Millisecond),
			run.Steps, speedup)
	}
	if e.Identical() {
		fmt.Fprintf(&b, "differential: threaded and reference bit-identical over %d points (steps, cycles, exit, profile)\n", e.Points)
	} else {
		for _, run := range e.Runs {
			for i, m := range run.Mismatches {
				if i == 5 {
					fmt.Fprintf(&b, "  %s: ... %d more\n", run.Engine, len(run.Mismatches)-5)
					break
				}
				fmt.Fprintf(&b, "  %s MISMATCH %s\n", run.Engine, m)
			}
		}
	}
	return b.String()
}
