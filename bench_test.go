// Benchmark harness regenerating the paper's evaluation (one benchmark
// per table/figure, per DESIGN.md's experiment index), plus per-stage
// micro-benchmarks. Each table benchmark prints its rows once and reports
// the headline numbers as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the full evaluation.
package binpart

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"binpart/internal/bench"
	"binpart/internal/binimg"
	"binpart/internal/core"
	"binpart/internal/decompile"
	"binpart/internal/dopt"
	"binpart/internal/exper"
	"binpart/internal/ir"
	"binpart/internal/mcc"
	"binpart/internal/mips"
	"binpart/internal/partition"
	"binpart/internal/progen"
	"binpart/internal/sim"
	"binpart/internal/synth"
)

var printOnce sync.Map

func printTable(key, text string) {
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		fmt.Println(text)
	}
}

// BenchmarkTable1MainResults regenerates the main-results table: all 20
// benchmarks on the 200 MHz MIPS + XC2V2000 platform (paper: speedup 5.4,
// kernel speedup 44.8, energy savings 69 %, 26,261 gates).
func BenchmarkTable1MainResults(b *testing.B) {
	r := exper.NewRunner(1, nil)
	for i := 0; i < b.N; i++ {
		t, err := r.Table1()
		if err != nil {
			b.Fatal(err)
		}
		printTable("t1", t.Format())
		b.ReportMetric(t.Summary.AppSpeedup, "speedup")
		b.ReportMetric(t.Summary.KernelSpeedup, "kernel-speedup")
		b.ReportMetric(100*t.Summary.EnergySavings, "energy-%")
		b.ReportMetric(float64(t.Summary.AreaGates), "gates")
	}
}

// BenchmarkTable2PlatformSweep regenerates the platform clock sweep
// (paper: 12.6x/84% at 40 MHz, 5.4x/69% at 200 MHz, 3.8x/49% at 400 MHz).
func BenchmarkTable2PlatformSweep(b *testing.B) {
	r := exper.NewRunner(1, nil)
	for i := 0; i < b.N; i++ {
		t, err := r.Table2()
		if err != nil {
			b.Fatal(err)
		}
		printTable("t2", t.Format())
		for j, mhz := range t.MHz {
			b.ReportMetric(t.Summaries[j].AppSpeedup, fmt.Sprintf("speedup-%.0fMHz", mhz))
		}
	}
}

// BenchmarkTable3OptLevels regenerates the compiler optimization-level
// sweep over crc, fir, brev, matmul (paper: speedup significant at every
// level but not monotone; software time improves with level).
func BenchmarkTable3OptLevels(b *testing.B) {
	r := exper.NewRunner(1, nil)
	for i := 0; i < b.N; i++ {
		t, err := r.Table3()
		if err != nil {
			b.Fatal(err)
		}
		printTable("t3", t.Format())
	}
}

// BenchmarkTable4Recovery regenerates the decompilation-success audit
// (paper: high-level constructs recovered for 18 of 20 benchmarks; two
// EEMBC examples fail on indirect jumps).
func BenchmarkTable4Recovery(b *testing.B) {
	r := exper.NewRunner(1, nil)
	for i := 0; i < b.N; i++ {
		t, err := r.Table4()
		if err != nil {
			b.Fatal(err)
		}
		printTable("t4", t.Format())
		b.ReportMetric(float64(t.Recovered), "kernels-recovered")
	}
}

// BenchmarkFigure1AreaSweep regenerates the speedup-vs-FPGA-size series
// over the Virtex-II catalog.
func BenchmarkFigure1AreaSweep(b *testing.B) {
	r := exper.NewRunner(1, nil)
	for i := 0; i < b.N; i++ {
		f, err := r.Figure1()
		if err != nil {
			b.Fatal(err)
		}
		printTable("f1", f.Format())
		b.ReportMetric(f.Speedups[len(f.Speedups)-1], "speedup-largest-device")
	}
}

// BenchmarkAblationPartitioners compares the 90-10 heuristic with the
// greedy and GCLP baselines (quality and selection time).
func BenchmarkAblationPartitioners(b *testing.B) {
	r := exper.NewRunner(1, nil)
	for i := 0; i < b.N; i++ {
		a, err := r.PartitionerComparison()
		if err != nil {
			b.Fatal(err)
		}
		printTable("a1", a.Format())
	}
}

// BenchmarkAblationPasses toggles decompiler passes off one at a time on
// -O3 binaries.
func BenchmarkAblationPasses(b *testing.B) {
	r := exper.NewRunner(1, nil)
	for i := 0; i < b.N; i++ {
		a, err := r.PassAblation()
		if err != nil {
			b.Fatal(err)
		}
		printTable("a2", a.Format())
	}
}

// ---------------------------------------------------------------------
// Stage micro-benchmarks on the crc workload.

func crcImage(b *testing.B) *binimg.Image {
	b.Helper()
	bm, _ := bench.ByName("crc")
	img, err := bm.Compile(1)
	if err != nil {
		b.Fatal(err)
	}
	return img
}

// BenchmarkStageCompile measures MicroC compilation. One untimed compile
// first warms the compiler's free list, so B/op is what a compile
// returns plus what its reused scratch does not cover, not the cost of a
// first compile in a fresh process.
func BenchmarkStageCompile(b *testing.B) {
	bm, _ := bench.ByName("crc")
	if _, err := mcc.Compile(bm.Source, mcc.Options{OptLevel: 2}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mcc.Compile(bm.Source, mcc.Options{OptLevel: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStageSimulate measures bare simulation (profiling off) — the
// raw interpreter hot path. One untimed run first leaves a machine in
// the simulator's free list, so even a single-iteration run (-benchtime
// 1x) reports steady-state allocations.
func BenchmarkStageSimulate(b *testing.B) {
	img := crcImage(b)
	cfg := sim.DefaultConfig()
	if _, err := sim.Execute(img, cfg); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Execute(img, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStageSimulateProfiled measures the profiling simulation as the
// partitioning flow runs it: dense instruction and edge counters plus the
// map-shaped Profile conversion at run end.
func BenchmarkStageSimulateProfiled(b *testing.B) {
	img := crcImage(b)
	cfg := sim.DefaultConfig()
	cfg.Profile = true
	if _, err := sim.Execute(img, cfg); err != nil { // warm the free list, as in StageSimulate
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Execute(img, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStageSimulateReference runs the same profiled workload through
// the original per-instruction stepper, keeping the fast path's win
// visible in every bench run.
func BenchmarkStageSimulateReference(b *testing.B) {
	img := crcImage(b)
	cfg := sim.DefaultConfig()
	cfg.Profile = true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.ExecuteReference(img, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimMemory isolates the simulator's memory path on a
// store/load-heavy kernel: a 1024-word buffer swept 64 times with a
// store, a reload, and an accumulate per element, reported as ns per
// retired step on the threaded (default) engine.
func BenchmarkSimMemory(b *testing.B) {
	words, err := mips.AssembleWords(`
		lui   $t0, 0x1000        # buffer base
		li    $t3, 64            # outer sweeps
	outer:
		addu  $t1, $t0, $zero
		li    $t2, 1024          # words per sweep
	inner:
		sw    $t2, 0($t1)
		lw    $t4, 0($t1)
		addu  $t5, $t5, $t4
		addiu $t1, $t1, 4
		addiu $t2, $t2, -1
		bgtz  $t2, inner
		addiu $t3, $t3, -1
		bgtz  $t3, outer
		addu  $v0, $t5, $zero
		break
	`, binimg.DefaultTextBase)
	if err != nil {
		b.Fatal(err)
	}
	img := &binimg.Image{
		Entry:    binimg.DefaultTextBase,
		TextBase: binimg.DefaultTextBase,
		Text:     words,
		DataBase: binimg.DefaultDataBase,
	}
	cfg := sim.DefaultConfig()
	var steps uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.Execute(img, cfg)
		if err != nil {
			b.Fatal(err)
		}
		steps = res.Steps
	}
	b.ReportMetric(float64(steps), "steps")
	if steps > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(steps), "ns/step")
	}
}

// BenchmarkStageDecompile measures binary parsing + CDFG creation. An
// untimed run first warms the decompiler's free list, as in
// StageSimulate; B/op is then the lifted IR a call returns.
func BenchmarkStageDecompile(b *testing.B) {
	img := crcImage(b)
	if _, err := decompile.Decompile(img); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decompile.Decompile(img); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStageDopt measures the decompiler optimization pipeline. An
// untimed run first warms dopt's workspace free list, as in
// StageSimulate.
func BenchmarkStageDopt(b *testing.B) {
	img := crcImage(b)
	res, err := decompile.Decompile(img)
	if err != nil {
		b.Fatal(err)
	}
	dopt.Optimize(res.Func("crc_kernel"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		res, err := decompile.Decompile(img)
		if err != nil {
			b.Fatal(err)
		}
		f := res.Func("crc_kernel")
		b.StartTimer()
		dopt.Optimize(f)
	}
}

// BenchmarkStageSynthesize measures behavioral synthesis of the hot loop.
func BenchmarkStageSynthesize(b *testing.B) {
	img := crcImage(b)
	res, err := decompile.Decompile(img)
	if err != nil {
		b.Fatal(err)
	}
	f := res.Func("crc_kernel")
	dopt.Optimize(f)
	loops := ir.FindLoops(f)
	if len(loops) == 0 {
		b.Fatal("no loops")
	}
	if _, err := synth.Synthesize(synth.LoopRegion(f, loops[0]), img, synth.DefaultOptions()); err != nil { // warm-up
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := synth.Synthesize(synth.LoopRegion(f, loops[0]), img, synth.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStageEndToEnd measures the whole flow on one binary.
func BenchmarkStageEndToEnd(b *testing.B) {
	img := crcImage(b)
	if _, err := core.Run(img, core.DefaultOptions()); err != nil { // warm-up
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(img, core.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStageAnalyzeSuite measures the cold analysis of the whole
// suite: an uncached core.Analyze (profile simulation, decompile, dopt,
// candidate construction and synthesis) of each of the 20 benchmarks at
// -O1, the per-binary work every table regeneration starts from. The
// binaries are compiled before the timer starts, and an untimed pass
// first brings the stages' free lists to their steady size, so B/op is
// what the analyses return plus what the lists do not cover.
func BenchmarkStageAnalyzeSuite(b *testing.B) {
	var imgs []*binimg.Image
	for _, bm := range bench.All() {
		img, err := bm.Compile(1)
		if err != nil {
			b.Fatal(err)
		}
		imgs = append(imgs, img)
	}
	opts := core.DefaultOptions()
	analyze := func() {
		for _, img := range imgs {
			if _, err := core.Analyze(img, opts); err != nil {
				b.Fatal(err)
			}
		}
	}
	analyze() // warm-up
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analyze()
	}
}

// BenchmarkStageAnalyzeUploads measures the cold analysis of binaries
// no cache has seen: an uncached core.Analyze of each of 40 generated
// programs, built the way perfbench builds its upload corpus (progen
// seeds 1-40 cycling through the four upload shapes, at a rotating opt
// level O0-O3). It covers the straight-line, branchy and switch shapes
// that StageAnalyzeSuite's -O1 suite does not. The programs are compiled
// before the timer starts, and an untimed pass warms the free lists, as
// in StageAnalyzeSuite.
func BenchmarkStageAnalyzeUploads(b *testing.B) {
	shapes := []progen.Config{
		progen.DefaultConfig(), progen.SwitchConfig(), progen.StraightlineConfig(), progen.BranchyConfig(),
	}
	var imgs []*binimg.Image
	for i := 0; i < 40; i++ {
		p := progen.Generate(int64(i+1), shapes[i%len(shapes)])
		img, err := mcc.Compile(p.Source, mcc.Options{OptLevel: (i / len(shapes)) % 4})
		if err != nil {
			b.Fatal(err)
		}
		imgs = append(imgs, img)
	}
	opts := core.DefaultOptions()
	analyze := func() {
		for _, img := range imgs {
			if _, err := core.Analyze(img, opts); err != nil {
				b.Fatal(err)
			}
		}
	}
	analyze() // warm-up
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analyze()
	}
}

// BenchmarkStageRegenerate measures one cold regeneration of every
// default table, figure, ablation and extension on fresh stage caches
// with 2 workers: exactly what `experiments -j 2` runs (both pass
// exper.Experiments to Runner.Regenerate), which compiles the suite at
// O0–O3 and analyzes each distinct sweep point once. Its B/op gates the
// bytes a table regeneration allocates, which set how often the garbage
// collector runs on the cold path. Untimed warm-up runs leave the stages' free lists holding their
// working memory, as later regenerations in one process find them, so
// B/op counts what a regeneration keeps or returns plus what the free
// lists do not cover. Which of the two workers' workspaces serves which
// binary varies from run to run, and a workspace grows when it first
// meets a larger binary than before; three warm-ups let every workspace
// reach its final size, which keeps B/op steady from the first timed
// run.
func BenchmarkStageRegenerate(b *testing.B) {
	regenerate := func() {
		r := exper.NewRunner(2, core.NewCaches())
		if _, err := r.Regenerate(exper.Experiments); err != nil {
			b.Fatal(err)
		}
	}
	for range 3 {
		regenerate()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		regenerate()
	}
}

// BenchmarkStageEvaluate measures the platform-dependent tail of the
// flow on crc's analysis — candidate pricing, the 90-10 partitioner and
// platform evaluation — the compute a warm bpartd request does per call.
func BenchmarkStageEvaluate(b *testing.B) {
	a, err := core.Analyze(crcImage(b), core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	p := core.DefaultOptions().Platform
	core.Evaluate(a, p, 0, core.AlgNinetyTen) // warm-up
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Evaluate(a, p, 0, core.AlgNinetyTen)
	}
}

// BenchmarkStageRenderReport measures rendering crc's report text into a
// reused buffer, as bpartd does per request; it allocates nothing.
func BenchmarkStageRenderReport(b *testing.B) {
	rep, err := core.Run(crcImage(b), core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	buf := core.AppendReport(nil, rep, false) // warm-up sizes the buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = core.AppendReport(buf[:0], rep, false)
	}
}

// BenchmarkPartitionerSelection isolates the selection heuristics on a
// synthetic 64-candidate set — the paper picks the 90-10 heuristic for
// its speed ("to reduce the time required for partitioning"), targeting
// dynamic partitioning.
func BenchmarkPartitionerSelection(b *testing.B) {
	r := rand.New(rand.NewSource(42))
	var cands []*partition.Candidate
	for i := 0; i < 64; i++ {
		cands = append(cands, &partition.Candidate{
			Name:       fmt.Sprintf("loop%d", i),
			SWTimeNs:   float64(1000 + r.Intn(1_000_000)),
			HWTimeNs:   float64(500 + r.Intn(100_000)),
			AreaGates:  1000 + r.Intn(30_000),
			SizeInstrs: 10 + r.Intn(100),
		})
	}
	b.Run("90-10", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			partition.Partition(cands, 200_000, partition.DefaultOptions())
		}
	})
	b.Run("greedy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			partition.GreedyKnapsack(cands, 200_000)
		}
	})
	b.Run("gclp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			partition.GCLP(cands, 200_000)
		}
	})
}

// ---------------------------------------------------------------------
// Concurrent executor + content-addressed stage cache.

// BenchmarkExecutorTable1Serial is the executor baseline: one worker, no
// cache — the historical serial evaluation path.
func BenchmarkExecutorTable1Serial(b *testing.B) {
	r := exper.NewRunner(1, nil)
	for i := 0; i < b.N; i++ {
		if _, err := r.Table1(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecutorTable1Parallel fans the 20 sweep points over 8 workers
// without caching, isolating the worker-pool overhead/speedup.
func BenchmarkExecutorTable1Parallel(b *testing.B) {
	r := exper.NewRunner(8, nil)
	for i := 0; i < b.N; i++ {
		if _, err := r.Table1(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecutorTable1Cached shares one stage-cache set across all
// iterations: after the first, every compile/sim/lift/synthesis lookup is
// a hit, so this measures the warm-cache sweep.
func BenchmarkExecutorTable1Cached(b *testing.B) {
	r := exper.NewRunner(8, core.NewCaches())
	if _, err := r.Table1(); err != nil { // warm
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Table1(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtensionJumpTables regenerates the E1 extension experiment:
// the paper's two indirect-jump failures with and without jump-table
// recovery.
func BenchmarkExtensionJumpTables(b *testing.B) {
	r := exper.NewRunner(1, nil)
	for i := 0; i < b.N; i++ {
		e, err := r.JumpTableExtension()
		if err != nil {
			b.Fatal(err)
		}
		printTable("e1", e.Format())
		b.ReportMetric(e.ExtSpeedups[0], "routelookup-speedup")
	}
}
