package core

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"time"

	"binpart/internal/bench"
	"binpart/internal/binimg"
	"binpart/internal/decompile"
	"binpart/internal/dopt"
	"binpart/internal/fpga"
	"binpart/internal/freelist"
	"binpart/internal/ir"
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
// the analysis cache and with every Report derived from this Analysis,
// and must be treated as read-only.
type Analysis struct {
	// opts records the options the analysis ran under (with Sim.Profile
	// forced on). Evaluate substitutes the platform-dependent fields —
	// Platform, AreaBudgetGates, Algorithm — per call.
	opts     Options
	ExitCode int32
	// SWCycles is the all-software cycle count from simulation.
	SWCycles uint64
	Recovery RecoveryStats
	// Candidates holds every synthesizable region in discovery order.
	Candidates []*RegionCandidate

	// img is the analyzed image, kept until Outlines lifts it once more;
	// outlines is what that lift rendered.
	img         *binimg.Image
	outlineOnce sync.Once
	outlines    map[string]string
}

// Outlines returns each recovered function's control structure and
// inferred signature as text, keyed by function name. No table reads
// them, so the analysis does not render them: the first call lifts the
// image once more under the options the analysis ran with, renders every
// outline, and drops the image. Later calls, from any goroutine, share
// that map read-only.
func (a *Analysis) Outlines() map[string]string {
	a.outlineOnce.Do(func() {
		if a.img == nil {
			return // built with its outlines, as tests do
		}
		lr, err := computeLift(a.img, decompile.Options{RecoverJumpTables: a.opts.RecoverJumpTables}, a.opts.Dopt, true)
		if err != nil {
			// The first lift of this image under these options succeeded.
			panic(fmt.Sprintf("core: lifting an analyzed image again: %v", err))
		}
		a.outlines, a.img = lr.Outlines, nil
	})
	return a.outlines
}

// Analyze runs the platform-independent stages of the flow — simulate,
// decompile + optimize, and synthesize every candidate — without caching.
func Analyze(img *binimg.Image, opts Options) (*Analysis, error) {
	return AnalyzeWith(img, opts, nil)
}

// AnalyzeWith is Analyze through a cache set: the simulation is
// memoized on its own, and the assembled Analysis under a key covering
// the image and every option that can influence it (the platform, area
// budget, and algorithm are excluded — they are evaluate-time inputs).
// Each analysis computed lifts the image itself, and only its own
// candidates share that lifted IR.
func AnalyzeWith(img *binimg.Image, opts Options, caches *Caches) (*Analysis, error) {
	return AnalyzeScoped(img, opts, caches, nil)
}

// AnalyzeScoped is AnalyzeWith under an observability scope: the analyze
// stage and its sub-stages (sim, lift, per-region synth) each record a
// span, with a cache outcome for analyze and sim; lift and synth have no
// cache. A nil scope records nothing and adds no allocations — the
// disabled fast path the Stage* benchmark gates hold to zero overhead.
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
	a := &Analysis{opts: opts, img: img}

	// 1. Profile the all-software execution.
	res, err := Simulate(img, opts.Sim, caches, sc)
	if err != nil {
		return nil, fmt.Errorf("core: software simulation: %w", err)
	}
	a.ExitCode = res.ExitCode
	a.SWCycles = res.Cycles
	ws := analysisScratches.Get()
	defer ws.release()
	cycAt := sim.AttributeCycles(img, res.Profile, ws.cycles)
	ws.cycles = cycAt.Cycles

	// 2+3. Decompile and run the decompiler optimization pipeline.
	liftSp := sc.Start(obs.StageLift)
	lr, err := computeLift(img, decompile.Options{RecoverJumpTables: opts.RecoverJumpTables}, opts.Dopt, false)
	if lr != nil {
		liftSp.SetRegions(uint64(lr.Recovery.FuncsRecovered))
	}
	liftSp.End()
	if err != nil {
		return nil, err
	}
	a.Recovery = lr.Recovery

	// 4. Build candidates: outermost loops (default), or whole call-free
	// functions when running at function granularity. Each function's
	// facts are gathered once and shared by all of its candidates.
	pf := &profileFacts{prof: res.Profile, cycAt: cycAt, takenFrom: ws.takenEdges(res.Profile)}
	for i, f := range lr.Dec.Funcs {
		fx := &funcFacts{
			f:       f,
			img:     img,
			extents: ws.blockExtents(f, img),
			factors: lr.Factors[i],
			loops:   lr.Loops[i],
		}
		if opts.Granularity == GranFunctions {
			rc, err := buildCandidate(fx, synth.FuncRegion(f), pf.funcInvocations(f), pf, opts, sc)
			if err != nil {
				return nil, err
			}
			if rc != nil {
				a.Candidates = append(a.Candidates, rc)
			}
			continue
		}
		for _, l := range fx.loops {
			if l.Depth != 1 {
				continue
			}
			rc, err := buildCandidate(fx, synth.LoopRegion(f, l), pf.loopInvocations(l), pf, opts, sc)
			if err != nil {
				return nil, err
			}
			if rc != nil {
				a.Candidates = append(a.Candidates, rc)
			}
		}
	}
	return a, nil
}

// LiftResult is the product of decompilation plus the decompiler
// optimization pipeline. It belongs to the one Analysis lifted from it:
// that analysis' candidates share it, and must treat it as read-only.
// Its per-function facts are indexed like Dec.Funcs: a symbol table may
// give two functions one name, so names identify nothing.
type LiftResult struct {
	Dec *decompile.Result
	// Factors holds each function's reroll factors (dopt.RerollReport's).
	Factors [][]int
	// Outlines renders each function's recovered control structure and
	// signature; computeLift fills it only when asked to.
	Outlines map[string]string
	// Loops holds each function's natural loops on its final IR, as
	// structure recovery found them (ir.FindLoops order; never nil).
	// Candidate construction and synthesis share them read-only.
	Loops [][]*ir.Loop
	// Recovery aggregates recovery statistics; FailReasons is shared.
	Recovery RecoveryStats
}

// computeLift runs decompilation, the dopt pipeline, and structure
// recovery — steps 2 and 3 of the flow. With outlines set it also
// renders each function's structure outline and signature.
func computeLift(img *binimg.Image, decOpts decompile.Options, cfg dopt.Config, outlines bool) (*LiftResult, error) {
	dec, err := decompile.DecompileWith(img, decOpts)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	lr := &LiftResult{
		Dec:     dec,
		Factors: make([][]int, len(dec.Funcs)),
		Loops:   make([][]*ir.Loop, len(dec.Funcs)),
	}
	if outlines {
		lr.Outlines = map[string]string{}
	}
	lr.Recovery.FailReasons = map[string]string{}
	for name, ferr := range dec.Failed {
		lr.Recovery.FuncsFailed++
		lr.Recovery.FailReasons[name] = ferr.Error()
	}
	for fi, f := range dec.Funcs {
		lr.Recovery.FuncsRecovered++
		dr := dopt.OptimizeWith(f, cfg)
		lr.Factors[fi] = dr.Reroll.Factors
		lr.Recovery.RerolledLoops += len(dr.Reroll.Rerolled)
		lr.Recovery.PromotedMultiplies += dr.Promote.Multiplies
		lr.Recovery.StackSlotsPromoted += dr.Stack.SlotsPromoted
		lr.Recovery.OpsNarrowed += dr.Width.OpsNarrowed

		st := ir.Recover(f)
		if outlines {
			sig := fmt.Sprintf("  signature: %s(%d args)", f.Name, dopt.InferParams(f))
			if dopt.InferReturns(f) {
				sig += " -> value"
			}
			lr.Outlines[f.Name] = st.Outline(f) + sig + "\n"
		}
		loops := make([]*ir.Loop, len(st.Loops))
		for i, l := range st.Loops {
			loops[i] = l.Loop
			lr.Recovery.LoopsFound++
			if l.Shape != ir.LoopOther {
				lr.Recovery.LoopsShaped++
			}
		}
		lr.Loops[fi] = loops
		for _, i := range st.Ifs {
			lr.Recovery.IfsFound++
			if i.Shape != ir.IfUnstructured {
				lr.Recovery.IfsShaped++
			}
		}
	}
	return lr, nil
}

// Evaluate prices the analysis' candidates for one platform, partitions
// under the area budget (0 selects the platform device's full capacity),
// and evaluates the chosen partition — microseconds per call. The 90-10
// heuristic caps step 1's size only for the analysis' loop candidates.
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
	// ns). regions[i] and priced[i] are a.Candidates[i]'s, each slice one
	// backing array.
	n := len(a.Candidates)
	ws := evalScratches.Get()
	defer ws.release()
	regions := make([]RegionReport, n)
	ws.priced = freelist.Resize(ws.priced, n)
	priced := ws.priced
	rep.Regions = make([]*RegionReport, n)
	for i, rc := range a.Candidates {
		regions[i].RegionCandidate = rc
		rep.Regions[i] = &regions[i]
		sw, hw := opts.Platform.Times(rc.Region)
		priced[i] = partition.Candidate{
			SWTimeNs:   sw * 1e9,
			HWTimeNs:   hw * 1e9,
			AreaGates:  rc.AreaGates,
			Footprint:  rc.Footprint,
			SizeInstrs: rc.SizeInstrs,
		}
	}
	slices.SortFunc(rep.Regions, func(a, b *RegionReport) int { return cmp.Compare(b.SWCycles, a.SWCycles) })

	// 5. Partition (timed: the paper's heuristic targets dynamic use).
	start := time.Now()
	var pres *partition.Result
	switch opts.Algorithm {
	case AlgGreedy:
		pres = partition.GreedyKnapsack(priced, opts.AreaBudgetGates)
	case AlgGCLP:
		pres = partition.GCLP(priced, opts.AreaBudgetGates)
	default:
		pres = partition.Partition(priced, opts.AreaBudgetGates, opts.Granularity == GranLoops)
	}
	rep.PartitionTime = time.Since(start)

	// 6. Evaluate on the platform, summing the selected regions in the
	// order they were picked.
	selected := ws.selected[:0]
	for _, i := range pres.Selected {
		rr := &regions[i]
		rr.Selected = true
		rr.Step = pres.Step[i]
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
