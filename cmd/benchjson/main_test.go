package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
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

// TestDiffReportsGatesStageBytes pins the B/op gate: like allocs/op it
// holds on any CPU, at the same 10%.
func TestDiffReportsGatesStageBytes(t *testing.T) {
	withBytes := func(b Benchmark, bytes float64) Benchmark {
		b.Metrics["B/op"] = bytes
		return b
	}
	old := report("cpuA", withBytes(bench("StageRegenerate", 1000, 100), 8000))
	cur := report("cpuB", withBytes(bench("StageRegenerate", 1000, 100), 9000)) // +12.5% bytes
	regs := diffReports(io.Discard, old, cur)
	if len(regs) != 1 || !strings.Contains(regs[0], "StageRegenerate B/op") {
		t.Fatalf("B/op regression not caught: %v", regs)
	}
	ok := report("cpuB", withBytes(bench("StageRegenerate", 1000, 100), 8700)) // +8.75%
	if regs := diffReports(io.Discard, old, ok); len(regs) != 0 {
		t.Fatalf("B/op within 10%% should pass: %v", regs)
	}
	ungated := report("cpuA", withBytes(bench("Table1MainResults", 1000, 100), 8000))
	if regs := diffReports(io.Discard, ungated, report("cpuA", withBytes(bench("Table1MainResults", 1000, 100), 90000))); len(regs) != 0 {
		t.Fatalf("B/op of an ungated benchmark should not gate: %v", regs)
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

// TestMergeKeepsFastestSample pins the -count=N behavior for timing:
// repeated lines for one benchmark collapse to the lowest-ns/op sample
// (timing noise is additive, so the minimum is the least-disturbed run),
// order of first appearance is preserved, and a sample without ns/op
// never displaces one that has it. allocs/op is the minimum over all
// repeats (TestMergeKeepsLeastAllocatingSample).
func TestMergeKeepsFastestSample(t *testing.T) {
	var rep Report
	rep.merge(bench("StageCompile", 1200, 100))
	rep.merge(bench("StageDopt", 500, 50))
	rep.merge(bench("StageCompile", 900, 101)) // faster repeat wins ns/op
	rep.merge(bench("StageCompile", 1500, 99)) // slower repeat keeps only its lower allocs
	rep.merge(Benchmark{Name: "StageDopt", N: 1, Metrics: map[string]float64{"allocs/op": 1}})
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("want 2 benchmarks, got %+v", rep.Benchmarks)
	}
	if rep.Benchmarks[0].Name != "StageCompile" || rep.Benchmarks[1].Name != "StageDopt" {
		t.Fatalf("order not preserved: %+v", rep.Benchmarks)
	}
	if got := rep.Benchmarks[0].Metrics; got["ns/op"] != 900 || got["allocs/op"] != 99 {
		t.Fatalf("want the fastest ns/op and the lowest allocs/op: %v", got)
	}
	if got := rep.Benchmarks[1].Metrics; got["ns/op"] != 500 {
		t.Fatalf("ns/op-less repeat displaced a timed sample: %v", got)
	}
}

// TestMergeKeepsLeastAllocatingSample pins the B/op and allocs/op rule
// the CI gate's -count 3 relies on: one disturbed repeat, whatever its
// timing, cannot raise the recorded bytes or allocations, and the
// custom metrics travel with the fastest sample.
func TestMergeKeepsLeastAllocatingSample(t *testing.T) {
	line := func(ns, bytes, allocs, speedup float64) Benchmark {
		return Benchmark{Name: "StageRegenerate", N: 1, Metrics: map[string]float64{
			"ns/op": ns, "B/op": bytes, "allocs/op": allocs, "speedup": speedup}}
	}
	var rep Report
	rep.merge(line(1000, 8456, 170, 6.1))
	rep.merge(line(900, 13960, 176, 6.2)) // fastest, but a stray allocation
	rep.merge(line(1100, 8460, 169, 6.3))
	want := map[string]float64{"ns/op": 900, "B/op": 8456, "allocs/op": 169, "speedup": 6.2}
	if got := rep.Benchmarks[0].Metrics; !reflect.DeepEqual(got, want) {
		t.Fatalf("merged %v, want %v", got, want)
	}
}

func TestParseBenchLineRoundTrip(t *testing.T) {
	b, ok := parseBenchLine("BenchmarkStageCompile-8   1406   807229 ns/op   1779 allocs/op")
	if !ok || b.Name != "StageCompile" || b.Metrics["allocs/op"] != 1779 {
		t.Fatalf("parse failed: %+v ok=%v", b, ok)
	}
}

// TestRunWritesNothingWithoutO pins that a run writes a file only where
// -o names one: gating against the committed BENCH.json must leave that
// file, and the working directory, as they were.
func TestRunWritesNothingWithoutO(t *testing.T) {
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	baseline := `{"go":"go1.24","goos":"linux","goarch":"amd64","cpu":"cpuA","benchmarks":[` +
		`{"name":"StageCompile","n":1,"metrics":{"ns/op":1000,"B/op":8456,"allocs/op":170}}]}` + "\n"
	if err := os.WriteFile("BENCH.json", []byte(baseline), 0o644); err != nil {
		t.Fatal(err)
	}
	input := "cpu: cpuB\nBenchmarkStageCompile-2   1   900 ns/op   8456 B/op   170 allocs/op\nok  binpart 0.1s\n"

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-baseline", "BENCH.json"}, strings.NewReader(input), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if stdout.String() != input {
		t.Errorf("stdout %q, want the input teed unchanged", stdout.String())
	}
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("run without -o left %d files, want only the baseline", len(entries))
	}
	if data, err := os.ReadFile("BENCH.json"); err != nil || string(data) != baseline {
		t.Errorf("run without -o changed the baseline (err %v):\n%s", err, data)
	}

	out := filepath.Join(dir, "out.json")
	if code := run([]string{"-o", out}, strings.NewReader(input), io.Discard, io.Discard); code != 0 {
		t.Fatalf("-o run exit %d", code)
	}
	rep, err := readReport(out)
	if err != nil || len(rep.Benchmarks) != 1 || rep.CPU != "cpuB" {
		t.Fatalf("-o wrote %+v (err %v)", rep, err)
	}
}
