package core

import (
	"testing"

	"binpart/internal/bench"
	"binpart/internal/binimg"
	"binpart/internal/platform"
	"binpart/internal/sim"
	"binpart/internal/vhdl"
)

func runBench(t *testing.T, name string, lvl int, opts Options) *Report {
	t.Helper()
	b, ok := bench.ByName(name)
	if !ok {
		t.Fatalf("no benchmark %q", name)
	}
	img, err := b.Compile(lvl)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(img, opts)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestEndToEndCRC(t *testing.T) {
	rep := runBench(t, "crc", 1, DefaultOptions())
	if rep.SWCycles == 0 {
		t.Fatal("no software cycles")
	}
	if len(rep.Regions) == 0 {
		t.Fatal("no candidate regions")
	}
	sel := rep.SelectedRegions()
	if len(sel) == 0 {
		t.Fatalf("nothing selected for hardware; regions: %+v", rep.Regions)
	}
	if rep.Metrics.AppSpeedup <= 1.0 {
		t.Errorf("application speedup %.2f, want > 1", rep.Metrics.AppSpeedup)
	}
	if rep.Metrics.KernelSpeedup < rep.Metrics.AppSpeedup {
		t.Errorf("kernel speedup %.2f below app speedup %.2f",
			rep.Metrics.KernelSpeedup, rep.Metrics.AppSpeedup)
	}
	if rep.Metrics.EnergySavings <= 0 {
		t.Errorf("energy savings %.2f, want positive", rep.Metrics.EnergySavings)
	}
	if rep.Metrics.AreaGates <= 0 {
		t.Error("no area consumed")
	}
	// The checksum must match the benchmark's software result.
	b, _ := bench.ByName("crc")
	img, _ := b.Compile(1)
	res, err := sim.Execute(img, sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep.ExitCode != res.ExitCode {
		t.Errorf("profiled run checksum %d != plain run %d", rep.ExitCode, res.ExitCode)
	}
}

func TestVHDLForSelectedRegions(t *testing.T) {
	rep := runBench(t, "fir", 1, DefaultOptions())
	if len(rep.SelectedRegions()) == 0 {
		t.Fatal("no VHDL emitted")
	}
	checkSelectedVHDL(t, rep)
}

func TestJumpTableBenchmarkDegradesGracefully(t *testing.T) {
	// Under the paper's flow (switch-table recovery off), routelookup's
	// kernel fails CDFG recovery; the flow must still complete (the
	// kernel simply stays in software).
	opts := DefaultOptions()
	opts.RecoverJumpTables = false
	rep := runBench(t, "routelookup", 1, opts)
	if rep.Recovery.FuncsFailed == 0 {
		t.Error("expected a recovery failure")
	}
	if _, ok := rep.Recovery.FailReasons["route_kernel"]; !ok {
		t.Errorf("route_kernel missing from failures: %v", rep.Recovery.FailReasons)
	}
	// Speedup may be modest (main's loops remain available) but the
	// pipeline must produce coherent metrics.
	if rep.Metrics.SWTimeS <= 0 || rep.Metrics.HWSWTimeS <= 0 {
		t.Errorf("bad metrics: %+v", rep.Metrics)
	}
}

func TestPlatformSweepShape(t *testing.T) {
	b, _ := bench.ByName("brev")
	img, err := b.Compile(1)
	if err != nil {
		t.Fatal(err)
	}
	speeds := map[string]float64{}
	for name, p := range map[string]platform.Platform{
		"40": platform.MIPS(40, platform.MIPS200.Device), "200": platform.MIPS200,
		"400": platform.MIPS(400, platform.MIPS200.Device),
	} {
		opts := DefaultOptions()
		opts.Platform = p
		rep, err := Run(img, opts)
		if err != nil {
			t.Fatal(err)
		}
		speeds[name] = rep.Metrics.AppSpeedup
	}
	if !(speeds["40"] > speeds["200"] && speeds["200"] > speeds["400"]) {
		t.Errorf("speedups not decreasing with CPU clock: %v", speeds)
	}
}

func TestAreaBudgetLimitsSelection(t *testing.T) {
	opts := DefaultOptions()
	opts.AreaBudgetGates = 1 // nothing fits
	rep := runBench(t, "fir", 1, opts)
	if len(rep.SelectedRegions()) != 0 {
		t.Error("regions selected under a 1-gate budget")
	}
	if rep.Metrics.AppSpeedup != 1 {
		t.Errorf("speedup %.2f with empty partition, want 1", rep.Metrics.AppSpeedup)
	}
}

func TestAlgorithmsProduceValidPartitions(t *testing.T) {
	for _, alg := range []Algorithm{AlgNinetyTen, AlgGreedy, AlgGCLP} {
		opts := DefaultOptions()
		opts.Algorithm = alg
		rep := runBench(t, "adpcm", 1, opts)
		if rep.Metrics.AppSpeedup < 1 {
			t.Errorf("%v: speedup %.2f < 1", alg, rep.Metrics.AppSpeedup)
		}
		budget := opts.AreaBudgetGates
		if budget == 0 {
			continue
		}
		total := 0
		for _, r := range rep.SelectedRegions() {
			total += r.AreaGates
		}
		if budget > 0 && total > budget {
			t.Errorf("%v: area %d over budget", alg, total)
		}
	}
}

func TestParseAlgorithmRoundTrip(t *testing.T) {
	for _, a := range []Algorithm{AlgNinetyTen, AlgGreedy, AlgGCLP} {
		if got, err := ParseAlgorithm(a.String()); err != nil || got != a {
			t.Errorf("ParseAlgorithm(%q) = %v, %v; want %v", a.String(), got, err, a)
		}
	}
	if _, err := ParseAlgorithm("nope"); err == nil || err.Error() != `unknown algorithm "nope"` {
		t.Errorf("ParseAlgorithm(\"nope\") error = %v", err)
	}
}

func TestRecoveryStatsPopulated(t *testing.T) {
	rep := runBench(t, "matmul", 3, DefaultOptions())
	if rep.Recovery.FuncsRecovered == 0 || rep.Recovery.LoopsFound == 0 {
		t.Errorf("empty recovery stats: %+v", rep.Recovery)
	}
	// matmul at O3 exercises loop rerolling.
	if rep.Recovery.RerolledLoops == 0 {
		t.Errorf("no loops rerolled on O3 matmul: %+v", rep.Recovery)
	}
	if rep.PartitionTime <= 0 {
		t.Error("partition time not measured")
	}
}

func TestOptLevelsAllPartitionable(t *testing.T) {
	for lvl := 0; lvl <= 3; lvl++ {
		rep := runBench(t, "fir", lvl, DefaultOptions())
		if rep.Metrics.AppSpeedup <= 1 {
			t.Errorf("O%d: speedup %.2f, want > 1", lvl, rep.Metrics.AppSpeedup)
		}
	}
}

// TestFunctionKernelsAreStepOnePicks checks that step 1 of the 90-10
// heuristic picks the hottest kernel function at function granularity.
// Its size cap is meant for loops ("a few dozen lines"), and these
// kernels are larger than it.
func TestFunctionKernelsAreStepOnePicks(t *testing.T) {
	opts := DefaultOptions()
	opts.Granularity = GranFunctions
	for _, tc := range []struct {
		name string
		lvl  int
	}{{"adpcm", 0}, {"g721", 0}, {"g721", 3}, {"jpeg", 0}, {"jpeg", 1}, {"sobel", 0}} {
		b, _ := bench.ByName(tc.name)
		rep := runBench(t, tc.name, tc.lvl, opts)
		step := 0
		for _, r := range rep.SelectedRegions() {
			if r.Name == b.KernelFunc {
				step = r.Step
			}
		}
		if step != 1 {
			t.Errorf("%s -O%d: kernel %s picked in step %d (0: not picked), want 1", tc.name, tc.lvl, b.KernelFunc, step)
		}
	}
}

func TestFunctionGranularity(t *testing.T) {
	// The paper's "synthesizing an entire software application" use:
	// whole call-free functions become the hardware regions.
	opts := DefaultOptions()
	opts.Granularity = GranFunctions
	rep := runBench(t, "brev", 1, opts)
	found := false
	for _, r := range rep.SelectedRegions() {
		if r.Func == "brev_kernel" && r.Name == "brev_kernel" {
			found = true
		}
	}
	if !found {
		t.Errorf("brev_kernel not selected as a whole function; regions: %+v", rep.Regions)
	}
	if rep.Metrics.AppSpeedup <= 1 {
		t.Errorf("speedup %.2f at function granularity", rep.Metrics.AppSpeedup)
	}
	// Loop granularity on the same binary must also work and produce a
	// comparable result.
	repLoops := runBench(t, "brev", 1, DefaultOptions())
	if repLoops.Metrics.AppSpeedup <= 1 {
		t.Errorf("loop-granularity speedup %.2f", repLoops.Metrics.AppSpeedup)
	}
}

func TestAllBenchmarksEmitCheckedVHDL(t *testing.T) {
	// System-level sweep: every selected region of every benchmark must
	// synthesize to VHDL that the strict VHDL parser accepts, with a
	// testbench to match.
	for _, b := range bench.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			img, err := b.Compile(1)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := Run(img, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			checkSelectedVHDL(t, rep)
			for _, r := range rep.SelectedRegions() {
				tb, err := vhdl.EmitTestbench(r.Design)
				if err != nil {
					t.Fatal(err)
				}
				if err := vhdl.Check(tb); err != nil {
					t.Errorf("%s testbench: %v", r.Name, err)
				}
			}
		})
	}
}

// checkSelectedVHDL emits each selected region's entity and requires
// vhdl.Check to accept it.
func checkSelectedVHDL(t *testing.T, rep *Report) {
	t.Helper()
	for _, r := range rep.SelectedRegions() {
		text, err := vhdl.Emit(r.Design)
		if err != nil {
			t.Fatal(err)
		}
		if err := vhdl.Check(text); err != nil {
			t.Errorf("%s: %v", r.Name, err)
		}
	}
}

func TestRunRejectsBadImages(t *testing.T) {
	// No functions at all.
	img := &binimg.Image{
		Entry:    binimg.DefaultTextBase,
		TextBase: binimg.DefaultTextBase,
		DataBase: binimg.DefaultDataBase,
	}
	if _, err := Run(img, DefaultOptions()); err == nil {
		t.Error("Run on empty image succeeded")
	}
}

func TestJumpTableExtensionAcceleratesFailedBenchmarks(t *testing.T) {
	// With the indirect-jump extension, the paper's two failing EEMBC
	// benchmarks become partitionable and accelerate.
	for _, name := range []string{"routelookup", "ttsprk"} {
		baseOpts := DefaultOptions()
		baseOpts.RecoverJumpTables = false // the paper's flow
		base := runBench(t, name, 1, baseOpts)
		opts := DefaultOptions()
		opts.RecoverJumpTables = true
		ext := runBench(t, name, 1, opts)
		if ext.Recovery.FuncsFailed != 0 {
			t.Errorf("%s: still %d failures with extension: %v",
				name, ext.Recovery.FuncsFailed, ext.Recovery.FailReasons)
		}
		if ext.Metrics.AppSpeedup <= base.Metrics.AppSpeedup {
			t.Errorf("%s: extension speedup %.2f not above baseline %.2f",
				name, ext.Metrics.AppSpeedup, base.Metrics.AppSpeedup)
		}
		if ext.Metrics.AppSpeedup < 1.5 {
			t.Errorf("%s: extension speedup %.2f too small", name, ext.Metrics.AppSpeedup)
		}
		// The VHDL for the switch-containing kernel must still check out.
		checkSelectedVHDL(t, ext)
	}
}
