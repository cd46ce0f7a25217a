package core

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"binpart/internal/bench"
	"binpart/internal/binimg"
	"binpart/internal/decompile"
	"binpart/internal/dopt"
	"binpart/internal/fpga"
	"binpart/internal/freelist"
	"binpart/internal/obs"
	"binpart/internal/partition"
	"binpart/internal/platform"
	"binpart/internal/sim"
	"binpart/internal/synth"
)

// RegionCandidate is one hardware candidate as the analysis stages see
// it: the region's cost record, function, memory footprint, static size
// and design. Every field is platform-independent — the simulator's
// cycle model, the decompiler, and the behavioral synthesizer never
// observe the CPU clock or the FPGA device — which is what lets one
// Analysis serve every sweep point; Platform.Times prices the record.
type RegionCandidate struct {
	platform.Region
	Func       string
	Footprint  []string
	SizeInstrs int
	Design     *synth.Design
}

// Analysis is the immutable product of the flow's heavy stages —
// profiling simulation, decompilation + decompiler optimization, and
// behavioral synthesis of every candidate region — for one binary under
// one analysis configuration. It is platform-independent: pricing the
// candidates for a platform, partitioning, and evaluating the result is
// Evaluate's job and costs microseconds, so sweeps over area budgets,
// clock rates, or partitioners build the Analysis once and fan the sweep
// points over Evaluate.
//
// All reference-typed fields (maps, designs, footprints) are shared with
// the stage caches and with every Report derived from this Analysis, and
// must be treated as read-only.
type Analysis struct {
	// opts records the options the analysis ran under (with Sim.Profile
	// forced on). Evaluate substitutes the platform-dependent fields —
	// Platform, AreaBudgetGates, Algorithm — per call.
	opts     Options
	ExitCode int32
	// SWCycles is the all-software cycle count from simulation.
	SWCycles uint64
	Recovery RecoveryStats
	// DoptReports holds the per-function decompiler-optimization logs.
	DoptReports map[string]dopt.Report
	// Outlines renders each recovered function's control structure.
	Outlines map[string]string
	// Candidates holds every synthesizable region in discovery order.
	Candidates []*RegionCandidate
}

// Analyze runs the platform-independent stages of the flow — simulate,
// decompile + optimize, and synthesize every candidate — without caching.
func Analyze(img *binimg.Image, opts Options) (*Analysis, error) {
	return AnalyzeWith(img, opts, nil)
}

// AnalyzeWith is Analyze through a cache set: the simulation and lift
// stages are memoized individually, and the assembled Analysis
// itself is memoized under a key covering the image and every option
// that can influence it (the platform, area budget, and algorithm are
// excluded — they are evaluate-time inputs).
func AnalyzeWith(img *binimg.Image, opts Options, caches *Caches) (*Analysis, error) {
	return AnalyzeScoped(img, opts, caches, nil)
}

// AnalyzeScoped is AnalyzeWith under an observability scope: the analyze
// stage and its sub-stages (sim, lift, per-region synth) each record a
// span, with a cache outcome for all but synth, which has no cache. A nil
// scope records nothing and adds no allocations — the disabled fast path
// the Stage* benchmark gates hold to zero overhead.
func AnalyzeScoped(img *binimg.Image, opts Options, caches *Caches, sc *obs.Scope) (*Analysis, error) {
	opts.Sim.Profile = true
	caches = caches.orNone()
	sp := sc.Start(obs.StageAnalyze)
	a, err := cached(caches.Analysis, &sp,
		func() analysisKey { return analysisKeyFor(img.Key(), opts) },
		func() (*Analysis, error) { return computeAnalysis(img, opts, caches, sc) })
	if a != nil {
		sp.SetRegions(uint64(len(a.Candidates)))
	}
	sp.End()
	return a, err
}

// computeAnalysis is stages 1-4 of the flow (see RunWith's doc): profile,
// lift, and candidate construction, stopping short of anything that reads
// the platform. caches is non-nil (AnalyzeScoped normalises it).
func computeAnalysis(img *binimg.Image, opts Options, caches *Caches, sc *obs.Scope) (*Analysis, error) {
	a := &Analysis{opts: opts}

	// 1. Profile the all-software execution.
	res, err := Simulate(img, opts.Sim, caches, sc)
	if err != nil {
		return nil, fmt.Errorf("core: software simulation: %w", err)
	}
	a.ExitCode = res.ExitCode
	a.SWCycles = res.Cycles
	ws := analysisScratches.Get()
	defer ws.release()
	cycAt := sim.AttributeCycles(img, res.Profile, opts.Sim.Cycles, ws.cycles)
	ws.cycles = cycAt.Cycles

	// 2+3. Decompile and run the decompiler optimization pipeline.
	decOpts := decompile.Options{RecoverJumpTables: opts.RecoverJumpTables}
	liftSp := sc.Start(obs.StageLift)
	lr, err := cached(caches.Lift, &liftSp,
		func() liftKey { return liftKeyFor(img.Key(), opts) },
		func() (*LiftResult, error) { return computeLift(img, decOpts, opts.Dopt) })
	if lr != nil {
		liftSp.SetRegions(uint64(lr.Recovery.FuncsRecovered))
	}
	liftSp.End()
	if err != nil {
		return nil, err
	}
	a.Recovery = lr.Recovery
	a.DoptReports = lr.Reports
	a.Outlines = lr.Outlines

	// 4. Build candidates: outermost loops (default), or whole call-free
	// functions when running at function granularity. Each function's
	// facts are gathered once and shared by all of its candidates.
	pf := &profileFacts{prof: res.Profile, cycAt: cycAt, takenFrom: ws.takenEdges(res.Profile)}
	for _, f := range lr.Dec.Funcs {
		if f.Name == "_start" {
			continue
		}
		fx := &funcFacts{
			f:       f,
			img:     img,
			extents: ws.blockExtents(f, img),
			factors: lr.Factors[f.Name],
			loops:   lr.Loops[f.Name],
		}
		if opts.Granularity == GranFunctions {
			rc, err := buildCandidate(fx, synth.FuncRegion(f), pf.funcInvocations(f), pf, opts, sc)
			if err == nil && rc != nil {
				a.Candidates = append(a.Candidates, rc)
			}
			continue
		}
		for _, l := range fx.loops {
			if l.Depth != 1 {
				continue
			}
			rc, err := buildCandidate(fx, synth.LoopRegion(f, l), pf.loopInvocations(l), pf, opts, sc)
			if err == nil && rc != nil {
				a.Candidates = append(a.Candidates, rc)
			}
		}
	}
	return a, nil
}

// Evaluate prices the analysis' candidates for one platform, partitions
// under the area budget (0 selects the platform device's full capacity),
// and evaluates the chosen partition — microseconds per call. Partition
// options come from the analysis' recorded options.
func Evaluate(a *Analysis, p platform.Platform, areaBudgetGates int, alg Algorithm) *Report {
	return EvaluateScoped(a, p, areaBudgetGates, alg, nil)
}

// EvaluateScoped is Evaluate under an observability scope: the evaluate
// stage records one span per call with the number of regions partitioned
// to hardware. A nil scope records nothing.
func EvaluateScoped(a *Analysis, p platform.Platform, areaBudgetGates int, alg Algorithm, sc *obs.Scope) *Report {
	opts := a.opts
	opts.Platform = p
	opts.AreaBudgetGates = areaBudgetGates
	opts.Algorithm = alg
	return evaluateOpts(a, opts, sc)
}

// evaluateOpts is the platform-dependent tail of the flow: candidate
// pricing, partitioning, and platform evaluation. The Report's regions
// are built per call, so concurrent evaluations of one Analysis are safe
// and a Report's Selected/Step marks are its own. Each region points at
// the Analysis' candidate record, and the Report at the Analysis itself:
// both are shared read-only with every other Report evaluated from it.
func evaluateOpts(a *Analysis, opts Options, sc *obs.Scope) *Report {
	sp := sc.Start(obs.StageEvaluate)
	if opts.Platform.CPUMHz == 0 {
		opts.Platform = platform.MIPS200
	}
	if opts.AreaBudgetGates == 0 {
		opts.AreaBudgetGates = fpga.Area{
			Slices: opts.Platform.Device.Slices,
			Mult18: opts.Platform.Device.Mult18,
		}.GateEquivalent()
	}
	opts.Sim.Profile = true
	rep := &Report{Analysis: a, Options: opts}

	// Price the candidates on the platform (Platform.Times, stored in
	// ns). Regions and candidates each live in one backing array.
	n := len(a.Candidates)
	ws := evalScratches.Get()
	defer ws.release()
	regions := make([]RegionReport, n)
	ws.priced = freelist.Resize(ws.priced, n)
	ws.cands = freelist.Resize(ws.cands, n)
	priced, cands := ws.priced, ws.cands
	rep.Regions = make([]*RegionReport, n)
	for i, rc := range a.Candidates {
		rr := &regions[i]
		rr.RegionCandidate = rc
		rep.Regions[i] = rr
		sw, hw := opts.Platform.Times(rc.Region)
		priced[i] = partition.Candidate{
			Name:       rc.Name,
			SWTimeNs:   sw * 1e9,
			HWTimeNs:   hw * 1e9,
			AreaGates:  rc.AreaGates,
			Footprint:  rc.Footprint,
			SizeInstrs: rc.SizeInstrs,
			Payload:    rr,
		}
		cands[i] = &priced[i]
	}
	slices.SortFunc(rep.Regions, func(a, b *RegionReport) int { return cmp.Compare(b.SWCycles, a.SWCycles) })

	// 5. Partition (timed: the paper's heuristic targets dynamic use).
	start := time.Now()
	var pres *partition.Result
	switch opts.Algorithm {
	case AlgGreedy:
		pres = partition.GreedyKnapsack(cands, opts.AreaBudgetGates)
	case AlgGCLP:
		pres = partition.GCLP(cands, opts.AreaBudgetGates)
	default:
		pres = partition.Partition(cands, opts.AreaBudgetGates, opts.partitionOptions())
	}
	rep.PartitionTime = time.Since(start)

	// 6. Evaluate on the platform.
	selected := ws.selected[:0]
	for _, c := range pres.Selected {
		rr := c.Payload.(*RegionReport)
		rr.Selected = true
		rr.Step = pres.Step[c.Name]
		selected = append(selected, rr.Region)
	}
	rep.Metrics = opts.Platform.Evaluate(a.SWCycles, selected)
	ws.selected = selected
	sp.SetSelected(uint64(len(pres.Selected)))
	sp.End()
	return rep
}

// Compile builds a suite benchmark at optLevel behind the compile cache
// (keyed by bench.CompileKey) and records a
// compile span with the cache outcome. It is the flow's front end for
// every caller that names a benchmark rather than supplying a binary.
// Nil caches and a nil scope are both allowed.
func Compile(b bench.Benchmark, optLevel int, caches *Caches, sc *obs.Scope) (*binimg.Image, error) {
	sp := sc.Start(obs.StageCompile)
	defer sp.End()
	return cached(caches.orNone().Compile, &sp,
		func() bench.CompileKey { return bench.CompileKey{Source: b.Source, Level: optLevel} },
		func() (*binimg.Image, error) { return b.Compile(optLevel) })
}

// Simulate is stage 1 of the flow behind the sim cache: it executes img
// under cfg (or serves the result from caches.Sim, keyed by the image and
// every cfg field, engine included) and records a sim span with the cache
// outcome and the instructions retired. Nil caches and a nil scope are
// both allowed.
func Simulate(img *binimg.Image, cfg sim.Config, caches *Caches, sc *obs.Scope) (sim.Result, error) {
	sp := sc.Start(obs.StageSim)
	res, err := cached(caches.orNone().Sim, &sp,
		func() simKey { return simKey{img.Key(), cfg} },
		func() (sim.Result, error) { return sim.Execute(img, cfg) })
	sp.SetInstrs(res.Steps)
	sp.End()
	return res, err
}
