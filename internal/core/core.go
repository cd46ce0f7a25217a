// Package core is this repository's primary contribution: the paper's
// decompilation-based binary-level hardware/software partitioning flow,
// assembled from the substrate packages into one pipeline:
//
//	binary ──simulate/profile──► hot spots
//	   │
//	   └─decompile──► CDFG ──decompiler optimizations──► clean CDFG
//	          │                                             │
//	          └── control structure recovery                │
//	                                                        ▼
//	     candidates (loops + times + areas + footprints) ──► partitioner
//	                                                        │
//	                 behavioral synthesis + Virtex-II model ◄┘
//	                                                        │
//	                   platform evaluation (speedup/energy) ▼ + VHDL
//
// The tool is compiler-independent by construction: its only input is an
// SBF binary image, no matter which source language or compiler (or
// optimization level) produced it.
package core

import (
	"fmt"
	"time"

	"binpart/internal/alias"
	"binpart/internal/binimg"
	"binpart/internal/dopt"
	"binpart/internal/freelist"
	"binpart/internal/ir"
	"binpart/internal/obs"
	"binpart/internal/partition"
	"binpart/internal/platform"
	"binpart/internal/sim"
	"binpart/internal/synth"
)

// Algorithm selects the partitioning heuristic.
type Algorithm int

const (
	AlgNinetyTen Algorithm = iota // the paper's 3-step heuristic
	AlgGreedy                     // Henkel-style gain/area knapsack
	AlgGCLP                       // simplified Kalavade/Lee
)

func (a Algorithm) String() string {
	switch a {
	case AlgNinetyTen:
		return "90-10"
	case AlgGreedy:
		return "greedy"
	case AlgGCLP:
		return "gclp"
	}
	return "unknown"
}

// ParseAlgorithm is the inverse of Algorithm.String.
func ParseAlgorithm(name string) (Algorithm, error) {
	for _, a := range []Algorithm{AlgNinetyTen, AlgGreedy, AlgGCLP} {
		if a.String() == name {
			return a, nil
		}
	}
	return 0, fmt.Errorf("unknown algorithm %q", name)
}

// Granularity selects the regions offered to the partitioner.
type Granularity int

const (
	// GranLoops offers outermost loops (the paper's default flow).
	GranLoops Granularity = iota
	// GranFunctions offers whole call-free functions, supporting the
	// paper's "synthesizing an entire software application, not just
	// kernels" use.
	GranFunctions
)

// Options configures a partitioning run.
type Options struct {
	Platform platform.Platform
	// AreaBudgetGates caps the hardware partition; 0 means the
	// platform device's full logic capacity.
	AreaBudgetGates int
	Synth           synth.Options
	Dopt            dopt.Config
	Algorithm       Algorithm
	Granularity     Granularity
	// RecoverJumpTables enables switch-table recovery in the
	// decompiler: register-indirect jumps that follow the jump-table
	// idiom become resolved multi-way branches. On in DefaultOptions,
	// closing the paper's 18/20 recovery gap (all 20 kernels recover);
	// set it false to reproduce the paper's two indirect-jump failures.
	RecoverJumpTables bool
	Sim               sim.Config
}

// DefaultOptions targets the paper's 200 MHz MIPS + XC2V2000 platform.
func DefaultOptions() Options {
	cfg := sim.DefaultConfig()
	cfg.Profile = true
	return Options{
		Platform:          platform.MIPS200,
		Synth:             synth.DefaultOptions(),
		RecoverJumpTables: true,
		Sim:               cfg,
	}
}

// RegionReport is one candidate as a Report shows it: the Analysis'
// record of the region, shared with every Report evaluated from it, and
// this Report's own partitioning marks.
type RegionReport struct {
	*RegionCandidate
	Selected bool
	Step     int // partitioning step that chose it (0 if unselected)
}

// RecoveryStats aggregates control-structure recovery over the binary.
type RecoveryStats struct {
	FuncsRecovered int
	FuncsFailed    int
	FailReasons    map[string]string
	LoopsFound     int
	LoopsShaped    int // classified as while/do-while/self
	IfsFound       int
	IfsShaped      int
	// RerolledLoops and PromotedMultiplies summarize the
	// compiler-optimization-undoing passes.
	RerolledLoops      int
	PromotedMultiplies int
	StackSlotsPromoted int
	OpsNarrowed        int
}

// Report is the full outcome of a partitioning run: the Analysis it was
// evaluated from (exit code, cycles, recovery, outlines) and
// what evaluating added. Regions and their Selected/Step marks belong to
// the report; the Analysis is shared with every Report of it and must
// not be modified.
type Report struct {
	*Analysis
	Options Options
	Regions []*RegionReport
	Metrics platform.Metrics
	// PartitionTime is how long candidate selection took (the paper
	// stresses fast partitioning for dynamic-synthesis integration).
	PartitionTime time.Duration
}

// SelectedRegions returns the regions chosen for hardware.
func (r *Report) SelectedRegions() []*RegionReport {
	var out []*RegionReport
	for _, reg := range r.Regions {
		if reg.Selected {
			out = append(out, reg)
		}
	}
	return out
}

// Run executes the full flow on a binary image without caching.
func Run(img *binimg.Image, opts Options) (*Report, error) {
	return RunWith(img, opts, nil)
}

// RunWith executes the full flow on a binary image, memoizing the
// simulation and the assembled analysis through the given cache set
// (compilation is Compile's). A nil cache set computes everything
// directly. The returned Report's regions are built per call; its maps
// (Recovery.FailReasons, Outlines()), footprints and designs
// are the cached analysis' own, shared with every other run of the same
// binary and options, and read-only like every stage product.
//
// RunWith is a thin composition of the two layers of the flow: the
// platform-independent AnalyzeWith (simulate, lift, synthesize — see
// analysis.go) and the platform-dependent evaluate tail (candidate
// pricing, partitioning, platform evaluation). Sweeps that vary only the
// platform, area budget, or algorithm should call AnalyzeWith once and
// Evaluate per point instead.
func RunWith(img *binimg.Image, opts Options, caches *Caches) (*Report, error) {
	return RunScoped(img, opts, caches, nil)
}

// RunScoped is RunWith under an observability scope (see AnalyzeScoped):
// every stage of the flow records a span attributed to the scope's
// benchmark, opt level, and worker. A nil scope records nothing and adds
// no allocations.
func RunScoped(img *binimg.Image, opts Options, caches *Caches, sc *obs.Scope) (*Report, error) {
	a, err := AnalyzeScoped(img, opts, caches, sc)
	if err != nil {
		return nil, err
	}
	return evaluateOpts(a, opts, sc), nil
}

// funcFacts are the facts every candidate of one function reads: its
// blocks' address extents, reroll factors, loops and alias information.
// They are gathered once per function and shared read-only by its
// candidates and their synthesis.
type funcFacts struct {
	f       *ir.Func
	img     *binimg.Image
	extents [][2]uint32 // by block index
	factors []int       // by block index; nil when nothing rerolled
	loops   []*ir.Loop  // ir.FindLoops(f)
	// am is computed by alias on first use unless set beforehand.
	am *alias.Info
}

// alias returns f's alias information, analyzing f on the first call.
func (fx *funcFacts) alias() *alias.Info {
	if fx.am == nil {
		fx.am = alias.AnalyzeLoops(fx.f, fx.img, fx.loops)
	}
	return fx.am
}

// region completes a synth region of fx's function with the shared
// facts, so synthesis does not recompute them.
func (fx *funcFacts) region(r synth.Region) synth.Region {
	r.Loops = fx.loops
	r.Alias = fx.alias()
	return r
}

// profileFacts are the profile-derived facts every candidate of one
// analysis reads, shared read-only.
type profileFacts struct {
	prof  *sim.Profile
	cycAt sim.Attribution
	// takenFrom sums the taken-edge counts of each branch PC.
	takenFrom map[uint32]uint64
}

// analysisScratch is computeAnalysis' working memory: the cycle
// attribution, the taken-edge sums and one function's block extents at a
// time. It comes from a free list; candidates copy numbers out of it and
// never keep a reference.
type analysisScratch struct {
	cycles  []uint64
	taken   map[uint32]uint64
	extents [][2]uint32
}

var analysisScratches freelist.List[analysisScratch]

func (ws *analysisScratch) release() { analysisScratches.Put(ws) }

// takenEdges sums the profile's taken-edge counts per source PC.
func (ws *analysisScratch) takenEdges(prof *sim.Profile) map[uint32]uint64 {
	if ws.taken == nil {
		ws.taken = make(map[uint32]uint64, len(prof.EdgeCount))
	}
	clear(ws.taken)
	for e, n := range prof.EdgeCount {
		ws.taken[e.From] += n
	}
	return ws.taken
}

// evalScratch is evaluateOpts' working memory: the priced candidates and
// the selected platform regions, which no Report keeps.
type evalScratch struct {
	priced   []partition.Candidate
	selected []platform.Region
}

var evalScratches freelist.List[evalScratch]

// release drops ws's references into the report it priced and returns it
// to the free list.
func (ws *evalScratch) release() {
	clear(ws.priced)
	clear(ws.selected[:cap(ws.selected)])
	evalScratches.Put(ws)
}

// blockExtents computes each block's original address range [start,end),
// indexed by block index, in ws.
func (ws *analysisScratch) blockExtents(f *ir.Func, img *binimg.Image) [][2]uint32 {
	n := 0
	for _, b := range f.Blocks {
		n = max(n, b.Index+1)
	}
	out := freelist.Resize(ws.extents, n)
	ws.extents = out
	clear(out)
	end := img.TextEnd()
	if s, ok := img.SymbolAt(f.Entry); ok && s.Size > 0 {
		end = s.Addr + s.Size
	}
	for i, b := range f.Blocks {
		e := end
		if i+1 < len(f.Blocks) {
			e = f.Blocks[i+1].Start
		}
		out[b.Index] = [2]uint32{b.Start, e}
	}
	return out
}

// buildCandidate synthesizes region r of fx's function — one of its
// loops or all of it — and gathers its profile numbers; control enters
// the region invocations times. A region that is never executed, or that
// holds an operation no design can implement, is not a candidate. The
// synthesis is recorded as a synth span on sc (nil records nothing).
func buildCandidate(fx *funcFacts, r synth.Region, invocations uint64, pf *profileFacts, opts Options, sc *obs.Scope) (*RegionCandidate, error) {
	// Software cycles, size and block execution counts from the profile.
	var swCycles uint64
	size := 0
	// blockExecs is in block-index order, the order of the design's
	// schedule.
	blockExecs := make([]uint64, len(r.Blocks))
	for i, b := range r.Blocks {
		if synth.Unsynthesizable(b) != nil {
			return nil, nil
		}
		size += len(b.Instrs)
		ext := fx.extents[b.Index]
		for pc := ext[0]; pc < ext[1]; pc += 4 {
			swCycles += pf.cycAt.At(pc)
		}
		blockExecs[i] = pf.prof.InstCount[ext[0]]
		if fx.factors != nil {
			blockExecs[i] *= uint64(fx.factors[b.Index])
		}
	}
	if swCycles == 0 {
		return nil, nil
	}

	sp := sc.Start(obs.StageSynth)
	d, err := synth.Synthesize(fx.region(r), fx.img, opts.Synth)
	sp.End()
	if err != nil {
		return nil, err
	}
	// The region's footprint is the data objects synthesis moved into
	// block RAM: every object its accesses resolve to.
	var fp []string
	for _, m := range d.MemObjects {
		fp = append(fp, m.Sym)
	}
	return &RegionCandidate{
		Region: platform.Region{
			Name:        d.Name,
			SWCycles:    swCycles,
			HWCycles:    d.Cycles(blockExecs),
			HWClockNs:   d.ClockNs,
			Invocations: invocations,
			AreaGates:   d.GateEquivalent(),
		},
		Func:       fx.f.Name,
		Footprint:  fp,
		SizeInstrs: size,
		Design:     d,
	}, nil
}

// funcInvocations is how often control enters f: its entry's execution
// count, at least 1.
func (pf *profileFacts) funcInvocations(f *ir.Func) uint64 {
	return max(pf.prof.InstCount[f.Entry], 1)
}

// loopInvocations is how often control enters loop l: header executions
// minus re-entries from inside the loop, at least 1. Taken branches are
// in the edge profile; fallthrough and unconditional flows contribute
// the predecessor's execution count.
func (pf *profileFacts) loopInvocations(l *ir.Loop) uint64 {
	prof := pf.prof
	headerExecs := prof.InstCount[l.Header.Start]
	var backFlow uint64
	for _, p := range l.Header.Preds {
		if !l.Contains(p.Index) {
			continue
		}
		execs := prof.InstCount[p.Start]
		t := p.Terminator()
		switch {
		case t == nil:
			backFlow += execs
		case t.Op == ir.Jump:
			backFlow += execs
		case t.Op == ir.Branch:
			taken := prof.EdgeCount[sim.Edge{From: t.Addr, To: l.Header.Start}]
			if t.Target == l.Header.Start {
				backFlow += taken
			} else if execs >= pf.takenFrom[t.Addr] {
				backFlow += execs - pf.takenFrom[t.Addr]
			}
		default:
			backFlow += execs
		}
	}
	if headerExecs > backFlow {
		return headerExecs - backFlow
	}
	return 1
}
