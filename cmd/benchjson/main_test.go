package main

import (
	"io"
	"strings"
	"testing"
)

func report(cpu string, benches ...Benchmark) Report {
	return Report{Go: "go1.24", GOOS: "linux", GOARCH: "amd64", CPU: cpu, Benchmarks: benches}
}

func bench(name string, nsOp, allocsOp float64) Benchmark {
	return Benchmark{Name: name, N: 100, Metrics: map[string]float64{"ns/op": nsOp, "allocs/op": allocsOp}}
}

func TestDiffReportsGatesStageAllocs(t *testing.T) {
	old := report("cpuA", bench("StageCompile", 1000, 100))
	cur := report("cpuB", bench("StageCompile", 5000, 120)) // +20% allocs, different CPU
	regs := diffReports(io.Discard, old, cur)
	if len(regs) != 1 {
		t.Fatalf("want 1 regression, got %v", regs)
	}
	if !strings.Contains(regs[0], "StageCompile allocs/op") {
		t.Fatalf("unexpected regression: %q", regs[0])
	}
}

func TestDiffReportsNsGateNeedsCPUMatch(t *testing.T) {
	old := report("cpuA", bench("StageDopt", 1000, 100))
	slow := report("cpuA", bench("StageDopt", 1200, 100)) // +20% ns/op, same CPU
	if regs := diffReports(io.Discard, old, slow); len(regs) != 1 || !strings.Contains(regs[0], "ns/op") {
		t.Fatalf("same-CPU ns/op regression not caught: %v", regs)
	}
	other := report("cpuB", bench("StageDopt", 1200, 100)) // same slowdown, other machine
	if regs := diffReports(io.Discard, old, other); len(regs) != 0 {
		t.Fatalf("cross-CPU ns/op should not gate: %v", regs)
	}
}

func TestDiffReportsIgnoresUngatedAndTolerated(t *testing.T) {
	old := report("cpuA",
		bench("StageSim", 1000, 100),
		bench("Figure1AreaSweep", 1000, 100))
	cur := report("cpuA",
		bench("StageSim", 1050, 105),         // within 10%
		bench("Figure1AreaSweep", 9000, 900), // regressed but not Stage*
	)
	if regs := diffReports(io.Discard, old, cur); len(regs) != 0 {
		t.Fatalf("want no regressions, got %v", regs)
	}
}

// TestDiffReportsGatesMissingBenchmark pins the hole where a gated
// baseline benchmark absent from the run was skipped, unhooking its
// ratchet without a trace. A missing Stage* entry must now
// fail the gate; a missing ungated entry stays quiet.
func TestDiffReportsGatesMissingBenchmark(t *testing.T) {
	old := report("cpuA",
		bench("StageSimulate", 1000, 0),
		bench("StageDopt", 1000, 10),
		bench("Figure1AreaSweep", 1000, 100))
	cur := report("cpuA", bench("StageSimulate", 1000, 0))
	regs := diffReports(io.Discard, old, cur)
	if len(regs) != 1 {
		t.Fatalf("want 1 regression (StageDopt missing), got %v", regs)
	}
	if !strings.Contains(regs[0], "StageDopt") || !strings.Contains(regs[0], "missing") {
		t.Fatalf("unexpected regression text: %q", regs[0])
	}
}

// TestDiffReportsZeroBaseline is the regression test for the zero-baseline
// hole: a Stage* benchmark that reached 0 allocs/op and then regressed to
// N used to slip past the gate because a relative delta over zero is
// undefined. Any absolute growth from a zero baseline must now gate.
func TestDiffReportsZeroBaseline(t *testing.T) {
	old := report("cpuA", bench("StageEvaluate", 1000, 0))
	cur := report("cpuA", bench("StageEvaluate", 1000, 3)) // 0 -> 3 allocs
	regs := diffReports(io.Discard, old, cur)
	if len(regs) != 1 {
		t.Fatalf("zero-baseline allocs growth not gated: %v", regs)
	}
	if !strings.Contains(regs[0], "StageEvaluate allocs/op") || !strings.Contains(regs[0], "zero baseline") {
		t.Fatalf("unexpected regression text: %q", regs[0])
	}
}

// TestDiffReportsZeroBaselineClean checks the quiet cases around zero:
// zero staying zero passes, ungated benchmarks never gate, and a
// zero-baseline ns/op growth on a different CPU stays advisory (wall
// clock does not transfer across machines, zero baseline or not).
func TestDiffReportsZeroBaselineClean(t *testing.T) {
	old := report("cpuA",
		bench("StageEvaluate", 1000, 0),
		bench("Figure1AreaSweep", 1000, 0))
	cur := report("cpuA",
		bench("StageEvaluate", 1000, 0),     // still zero
		bench("Figure1AreaSweep", 1000, 50)) // grew, but not Stage*
	if regs := diffReports(io.Discard, old, cur); len(regs) != 0 {
		t.Fatalf("want no regressions, got %v", regs)
	}

	oldNs := report("cpuA", bench("StageSim", 0, 10))
	curNs := report("cpuB", bench("StageSim", 500, 10)) // ns/op from zero, other machine
	if regs := diffReports(io.Discard, oldNs, curNs); len(regs) != 0 {
		t.Fatalf("cross-CPU zero-baseline ns/op should not gate: %v", regs)
	}
	curSame := report("cpuA", bench("StageSim", 500, 10)) // same machine: gate
	if regs := diffReports(io.Discard, oldNs, curSame); len(regs) != 1 {
		t.Fatalf("same-CPU zero-baseline ns/op growth not gated: %v", regs)
	}
}

// TestMergeKeepsFastestSample pins the -count=N behavior: repeated
// lines for one benchmark collapse to the lowest-ns/op sample (timing
// noise is additive, so the minimum is the least-disturbed run), order
// of first appearance is preserved, and a sample without ns/op never
// displaces one that has it.
func TestMergeKeepsFastestSample(t *testing.T) {
	var rep Report
	rep.merge(bench("StageCompile", 1200, 100))
	rep.merge(bench("StageDopt", 500, 50))
	rep.merge(bench("StageCompile", 900, 101)) // faster repeat wins wholesale
	rep.merge(bench("StageCompile", 1500, 99)) // slower repeat is dropped
	rep.merge(Benchmark{Name: "StageDopt", N: 1, Metrics: map[string]float64{"allocs/op": 1}})
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("want 2 benchmarks, got %+v", rep.Benchmarks)
	}
	if rep.Benchmarks[0].Name != "StageCompile" || rep.Benchmarks[1].Name != "StageDopt" {
		t.Fatalf("order not preserved: %+v", rep.Benchmarks)
	}
	if got := rep.Benchmarks[0].Metrics; got["ns/op"] != 900 || got["allocs/op"] != 101 {
		t.Fatalf("fastest sample not kept whole: %v", got)
	}
	if got := rep.Benchmarks[1].Metrics; got["ns/op"] != 500 {
		t.Fatalf("ns/op-less repeat displaced a timed sample: %v", got)
	}
}

func TestParseBenchLineRoundTrip(t *testing.T) {
	b, ok := parseBenchLine("BenchmarkStageCompile-8   1406   807229 ns/op   1779 allocs/op")
	if !ok || b.Name != "StageCompile" || b.Metrics["allocs/op"] != 1779 {
		t.Fatalf("parse failed: %+v ok=%v", b, ok)
	}
}
