package exper

import (
	"strings"
	"testing"
)

// TestTable1ShapeClaims checks the paper's headline claims hold on the
// regenerated main-results table.
func TestTable1ShapeClaims(t *testing.T) {
	t1, err := NewRunner(1, nil).Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(t1.Rows) != 20 {
		t.Fatalf("%d rows, want 20", len(t1.Rows))
	}
	s := t1.Summary
	// Paper: 5.4x average application speedup. Shape: same factor class.
	if s.AppSpeedup < 3 || s.AppSpeedup > 12 {
		t.Errorf("average speedup %.2f outside the paper's factor class (5.4)", s.AppSpeedup)
	}
	// Paper: kernel speedup (44.8) far exceeds application speedup.
	if s.KernelSpeedup <= s.AppSpeedup {
		t.Errorf("kernel speedup %.2f not above app speedup %.2f", s.KernelSpeedup, s.AppSpeedup)
	}
	// Paper: 69 % average energy savings.
	if s.EnergySavings < 0.5 || s.EnergySavings > 0.85 {
		t.Errorf("energy savings %.1f%% outside the paper's class (69%%)", 100*s.EnergySavings)
	}
	// Paper: 26,261 average equivalent gates — same order of magnitude.
	if s.AreaGates < 10_000 || s.AreaGates > 100_000 {
		t.Errorf("average area %d gates outside the paper's order (26k)", s.AreaGates)
	}
	// Switch-table recovery is on by default: no kernel fails, and the
	// paper's two indirect-jump casualties partition and accelerate.
	for _, r := range t1.Rows {
		if r.KernelFailed {
			t.Errorf("%s: kernel failed recovery with switch-table recovery on", r.Name)
		}
	}
	formerFailures := map[string]bool{"routelookup": true, "ttsprk": true}
	for _, r := range t1.Rows {
		if !formerFailures[r.Name] {
			continue
		}
		if r.Selected == 0 {
			t.Errorf("%s: no selected hardware regions", r.Name)
		}
		if r.AppSpeedup <= 1.00 {
			t.Errorf("%s: speedup %.2f not above 1.00", r.Name, r.AppSpeedup)
		}
	}
	out := t1.Format()
	for _, want := range []string{"AVERAGE", "crc", "routelookup", "ttsprk"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted table missing %q", want)
		}
	}
	if strings.Contains(out, "recovery failed") {
		t.Error("formatted table still reports a recovery failure")
	}
}

// TestTable2MonotoneShape checks the platform-sweep ordering claims.
func TestTable2MonotoneShape(t *testing.T) {
	if testing.Short() {
		t.Skip("3x full-suite runs")
	}
	t2, err := NewRunner(1, nil).Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(t2.Summaries) != 3 {
		t.Fatalf("%d platforms, want 3", len(t2.Summaries))
	}
	for i := 1; i < len(t2.Summaries); i++ {
		if t2.Summaries[i].AppSpeedup >= t2.Summaries[i-1].AppSpeedup {
			t.Errorf("speedup not decreasing with CPU clock: %v -> %v",
				t2.Summaries[i-1].AppSpeedup, t2.Summaries[i].AppSpeedup)
		}
		if t2.Summaries[i].EnergySavings >= t2.Summaries[i-1].EnergySavings {
			t.Errorf("savings not decreasing with CPU clock")
		}
	}
	// 40 MHz speedup should land near the paper's 12.6x.
	if s := t2.Summaries[0].AppSpeedup; s < 8 || s > 20 {
		t.Errorf("40 MHz speedup %.2f far from paper's 12.6", s)
	}
	out := t2.Format()
	for _, want := range []string{"40MHz", "200MHz", "400MHz", "paper"} {
		if !strings.Contains(out, want) {
			t.Errorf("T2 format missing %q", want)
		}
	}
}

// TestTable3Claims checks the optimization-level experiment's claims.
func TestTable3Claims(t *testing.T) {
	t3, err := NewRunner(1, nil).Table3()
	if err != nil {
		t.Fatal(err)
	}
	if len(t3.Rows) != 16 {
		t.Fatalf("%d rows, want 16 (4 benchmarks x 4 levels)", len(t3.Rows))
	}
	byBench := map[string][]Row{}
	for _, r := range t3.Rows {
		byBench[r.Name] = append(byBench[r.Name], r)
	}
	for name, rows := range byBench {
		for i := 1; i < len(rows); i++ {
			// "software execution times improved as the level of compiler
			// optimizations increased" (allow equality).
			if rows[i].SWTimeMs > rows[i-1].SWTimeMs*1.001 {
				t.Errorf("%s: sw time rose from -O%d to -O%d (%.3f -> %.3f ms)",
					name, rows[i-1].OptLevel, rows[i].OptLevel, rows[i-1].SWTimeMs, rows[i].SWTimeMs)
			}
		}
		// "speedup was significant for all levels".
		for _, r := range rows {
			if r.AppSpeedup < 1.5 {
				t.Errorf("%s -O%d: speedup %.2f not significant", name, r.OptLevel, r.AppSpeedup)
			}
		}
	}
	if out := t3.Format(); !strings.Contains(out, "-O3") {
		t.Error("T3 format missing level column")
	}
}

// TestTable4Exact checks the recovery audit: with switch-table recovery
// on by default, every kernel recovers (the paper stops at 18/20).
func TestTable4Exact(t *testing.T) {
	t4, err := NewRunner(1, nil).Table4()
	if err != nil {
		t.Fatal(err)
	}
	if t4.Recovered != 20 || t4.Failed != 0 {
		t.Errorf("recovered %d / failed %d, want 20/0", t4.Recovered, t4.Failed)
	}
	if len(t4.FailedList) != 0 {
		t.Errorf("unexpected failures %v", t4.FailedList)
	}
	out := t4.Format()
	if !strings.Contains(out, "20/20") {
		t.Error("T4 format missing the 20/20 summary")
	}
	// The paper's result stays quotable next to ours.
	if !strings.Contains(out, "18/20") {
		t.Error("T4 format dropped the paper's 18/20 reference")
	}
}

// TestFigure1Saturates checks the area-sweep series grows then flattens.
func TestFigure1Saturates(t *testing.T) {
	if testing.Short() {
		t.Skip("11x full-suite runs")
	}
	f1, err := NewRunner(1, nil).Figure1()
	if err != nil {
		t.Fatal(err)
	}
	if len(f1.Speedups) != 11 {
		t.Fatalf("%d devices, want 11", len(f1.Speedups))
	}
	first, last := f1.Speedups[0], f1.Speedups[len(f1.Speedups)-1]
	if last <= first {
		t.Errorf("speedup does not grow with device size: %.2f -> %.2f", first, last)
	}
	// Monotone non-decreasing within tolerance.
	for i := 1; i < len(f1.Speedups); i++ {
		if f1.Speedups[i] < f1.Speedups[i-1]-0.05 {
			t.Errorf("speedup dropped at %s: %.2f -> %.2f",
				f1.Devices[i], f1.Speedups[i-1], f1.Speedups[i])
		}
	}
	// Saturation: the top half of the catalog should be flat.
	mid := f1.Speedups[len(f1.Speedups)/2]
	if last > mid*1.1 {
		t.Errorf("no saturation: mid %.2f vs largest %.2f", mid, last)
	}
	if out := f1.Format(); !strings.Contains(out, "XC2V8000") {
		t.Error("F1 format missing largest device")
	}
}

// TestPartitionerComparisonRuns smoke-tests A1 and its formatting.
func TestPartitionerComparisonRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("3x full-suite runs")
	}
	a, err := NewRunner(1, nil).PartitionerComparison()
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Names) != 3 {
		t.Fatalf("%d algorithms, want 3", len(a.Names))
	}
	for i, n := range a.Names {
		if a.Speedups[i] < 1 {
			t.Errorf("%s: speedup %.2f", n, a.Speedups[i])
		}
		if a.PartTimes[i] <= 0 {
			t.Errorf("%s: no partition time", n)
		}
	}
	if out := a.Format(); !strings.Contains(out, "90-10") {
		t.Error("A1 format missing 90-10 row")
	}
}

// TestPassAblationShape checks the headline ablation claims.
func TestPassAblationShape(t *testing.T) {
	a, err := NewRunner(1, nil).PassAblation()
	if err != nil {
		t.Fatal(err)
	}
	idx := map[string]int{}
	for i, n := range a.Names {
		idx[n] = i
	}
	// Rerolling exists to shrink hardware: disabling it must cost area.
	if a.Areas[idx["no-reroll"]] <= a.Areas[idx["full"]] {
		t.Errorf("no-reroll area %d not above full %d", a.Areas[idx["no-reroll"]], a.Areas[idx["full"]])
	}
	// Pipelining is the main speedup source.
	if a.Speedups[idx["no-pipeline"]] >= a.Speedups[idx["full"]] {
		t.Errorf("no-pipeline speedup %.2f not below full %.2f",
			a.Speedups[idx["no-pipeline"]], a.Speedups[idx["full"]])
	}
	if out := a.Format(); !strings.Contains(out, "no-reroll") {
		t.Error("A2 format missing rows")
	}
}

// TestJumpTableExtension checks the E1 extension experiment: both of the
// paper's failures recover and accelerate.
func TestJumpTableExtension(t *testing.T) {
	e, err := NewRunner(1, nil).JumpTableExtension()
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Names) != 2 {
		t.Fatalf("%d rows, want 2", len(e.Names))
	}
	for i, n := range e.Names {
		if e.BaseRecovered[i] {
			t.Errorf("%s: baseline recovered; paper failure mode lost", n)
		}
		if !e.ExtRecovered[i] {
			t.Errorf("%s: extension did not recover", n)
		}
		if e.ExtSpeedups[i] <= e.BaseSpeedups[i] {
			t.Errorf("%s: no speedup gain (%.2f vs %.2f)", n, e.ExtSpeedups[i], e.BaseSpeedups[i])
		}
	}
	if out := e.Format(); !strings.Contains(out, "FAILED") || !strings.Contains(out, "recovered") {
		t.Error("E1 format missing status columns")
	}
}
