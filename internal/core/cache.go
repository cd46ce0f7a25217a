package core

import (
	"fmt"
	"strings"

	"binpart/internal/bench"
	"binpart/internal/binimg"
	"binpart/internal/cache"
	"binpart/internal/decompile"
	"binpart/internal/dopt"
	"binpart/internal/ir"
	"binpart/internal/obs"
	"binpart/internal/platform"
	"binpart/internal/sim"
)

// Caches bundles the stage caches of the flow. All fields are optional
// (nil disables that stage's cache) and a nil *Caches disables caching
// entirely, so RunWith(img, opts, nil) ≡ Run(img, opts).
//
// Cached values are shared: a hit returns the same pointers a previous
// run produced. Every consumer in this package treats them as immutable —
// profiles are only read, lifted functions are only traversed, designs
// are only costed and emitted — which is what makes sharing across a
// concurrent experiment sweep safe (and what `go test -race` checks).
//
// Every cache keys on a plain comparable value holding its stage's
// inputs, with an image standing for its content digest (binimg's Key),
// so Go's == compares every field: a field added to sim.Config,
// dopt.Config or Options joins the keys that hold that struct without
// anyone listing it (TestCacheKeysCoverOptions checks which field moves
// which key).
type Caches struct {
	// Compile memoizes MicroC compilation: source text + opt level.
	Compile *cache.Cache[bench.CompileKey, *binimg.Image]
	// Sim memoizes profiling simulation: image + sim config.
	Sim *cache.Cache[simKey, sim.Result]
	// Lift memoizes decompilation plus the decompiler-optimization
	// pipeline: image + decompile options + dopt config.
	Lift *cache.Cache[liftKey, *LiftResult]
	// Analysis memoizes the assembled platform-independent Analysis:
	// image + Options, less the evaluate-time fields (see analysisKeyFor).
	Analysis *cache.Cache[analysisKey, *Analysis]
}

// simKey keys the sim cache: an image and the whole simulator config,
// engine included.
type simKey struct {
	img binimg.Digest
	cfg sim.Config
}

// liftKey keys the lift cache: an image and computeLift's options.
type liftKey struct {
	img  binimg.Digest
	dec  decompile.Options
	dopt dopt.Config
}

// liftKeyFor is the lift key of the image with digest d under opts.
func liftKeyFor(d binimg.Digest, opts Options) liftKey {
	return liftKey{d, decompile.Options{RecoverJumpTables: opts.RecoverJumpTables}, opts.Dopt}
}

// analysisKey keys the analysis cache: an image and its analysis options.
type analysisKey struct {
	img  binimg.Digest
	opts Options
}

// analysisKeyFor is the analysis key of the image with digest d under
// opts (see AnalysisOptions).
func analysisKeyFor(d binimg.Digest, opts Options) analysisKey {
	return analysisKey{d, AnalysisOptions(opts)}
}

// AnalysisOptions is opts less its evaluate-time inputs: the platform,
// area budget and algorithm are zeroed, so one Analysis of an image
// serves every option set with equal AnalysisOptions. The partition
// options are evaluate-time inputs too, but the Analysis records them
// (Evaluate reads them), so they stay.
func AnalysisOptions(opts Options) Options {
	opts.Platform = platform.Platform{}
	opts.AreaBudgetGates = 0
	opts.Algorithm = 0
	return opts
}

// noCaches is what a nil *Caches means: every stage cache is nil, so
// every stage computes directly.
var noCaches Caches

// orNone maps a nil *Caches to noCaches, so the flow's entry points
// normalise once and then read stage caches without nil checks.
func (c *Caches) orNone() *Caches {
	if c == nil {
		return &noCaches
	}
	return c
}

// cached is the one way into a stage cache. With no cache attached it
// calls compute directly and never builds a key (so never hashes an
// image); otherwise it looks up key() in c (computing on a miss) and
// records on sp how the lookup was served. Routing every cached stage
// call through here is what keeps the trace's per-stage span outcomes
// reconciling with the caches' Stats.
func cached[K comparable, V any](c *cache.Cache[K, V], sp *obs.Span, key func() K, compute func() (V, error)) (V, error) {
	if c == nil {
		return compute()
	}
	v, out, err := c.GetOrCompute(key(), compute)
	sp.SetOutcome(out)
	return v, err
}

// Default per-stage capacities. The suite has 20 benchmarks x 4 opt
// levels.
const (
	defaultCompileEntries  = 256
	defaultSimEntries      = 256
	defaultLiftEntries     = 256
	defaultAnalysisEntries = 256
)

// NewCaches builds an in-memory cache set with default capacities.
func NewCaches() *Caches {
	return &Caches{
		Compile:  cache.New[bench.CompileKey, *binimg.Image](defaultCompileEntries),
		Sim:      cache.New[simKey, sim.Result](defaultSimEntries),
		Lift:     cache.New[liftKey, *LiftResult](defaultLiftEntries),
		Analysis: cache.New[analysisKey, *Analysis](defaultAnalysisEntries),
	}
}

// cacheNames is the rendering order of the stage caches; StatsMap carries
// the same names as keys, so manifests and the stats table agree.
var cacheNames = []string{"compile", "sim", "lift", "analysis"}

// StatsMap snapshots every stage cache's counters, keyed by stage name.
// This is the accounting surface shared by the -stats table and the run
// manifest: both render the same snapshot type, so they reconcile exactly.
func (c *Caches) StatsMap() map[string]cache.Stats {
	if c == nil {
		return nil
	}
	return map[string]cache.Stats{
		"compile":  c.Compile.Stats(),
		"sim":      c.Sim.Stats(),
		"lift":     c.Lift.Stats(),
		"analysis": c.Analysis.Stats(),
	}
}

// StatsString formats per-stage hit/miss/eviction counters.
func (c *Caches) StatsString() string {
	if c == nil {
		return "cache: disabled\n"
	}
	stats := c.StatsMap()
	var b strings.Builder
	b.WriteString("cache  stage      hits   miss  wait  evict  entries\n")
	for _, name := range cacheNames {
		s := stats[name]
		fmt.Fprintf(&b, "cache  %-8s %6d %6d %5d %6d %8d\n",
			name, s.Hits, s.Misses, s.Waits, s.Evictions, s.Entries)
	}
	return b.String()
}

// LiftResult is the cached product of decompilation plus the decompiler
// optimization pipeline. Everything here is shared across runs on a cache
// hit and must be treated as read-only.
type LiftResult struct {
	Dec *decompile.Result
	// Reports holds the per-function decompiler-optimization logs.
	Reports map[string]dopt.Report
	// Factors holds per-function reroll factors (block index -> factor).
	Factors map[string]map[int]int
	// Outlines renders each function's recovered control structure.
	Outlines map[string]string
	// Loops holds each function's natural loops on its final IR, as
	// structure recovery found them (ir.FindLoops order; never nil).
	// Candidate construction and synthesis share them read-only.
	Loops map[string][]*ir.Loop
	// Recovery aggregates recovery statistics; FailReasons is shared.
	Recovery RecoveryStats
}

// computeLift runs decompilation, the dopt pipeline, and structure
// recovery — steps 2 and 3 of the flow — producing the cacheable product.
func computeLift(img *binimg.Image, decOpts decompile.Options, cfg dopt.Config) (*LiftResult, error) {
	dec, err := decompile.DecompileWith(img, decOpts)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	lr := &LiftResult{
		Dec:      dec,
		Reports:  map[string]dopt.Report{},
		Factors:  map[string]map[int]int{},
		Outlines: map[string]string{},
		Loops:    map[string][]*ir.Loop{},
	}
	lr.Recovery.FailReasons = map[string]string{}
	for name, ferr := range dec.Failed {
		lr.Recovery.FuncsFailed++
		lr.Recovery.FailReasons[name] = ferr.Error()
	}
	for _, f := range dec.Funcs {
		lr.Recovery.FuncsRecovered++
		dr := dopt.OptimizeWith(f, cfg)
		lr.Reports[f.Name] = dr
		lr.Factors[f.Name] = dr.Reroll.Factors
		lr.Recovery.RerolledLoops += len(dr.Reroll.Rerolled)
		lr.Recovery.PromotedMultiplies += dr.Promote.Multiplies
		lr.Recovery.StackSlotsPromoted += dr.Stack.SlotsPromoted
		lr.Recovery.OpsNarrowed += dr.Width.OpsNarrowed

		st := ir.Recover(f)
		sig := fmt.Sprintf("  signature: %s(%d args)", f.Name, dopt.InferParams(f))
		if dopt.InferReturns(f) {
			sig += " -> value"
		}
		lr.Outlines[f.Name] = st.Outline(f) + sig + "\n"
		loops := make([]*ir.Loop, len(st.Loops))
		for i, l := range st.Loops {
			loops[i] = l.Loop
			lr.Recovery.LoopsFound++
			if l.Shape != ir.LoopOther {
				lr.Recovery.LoopsShaped++
			}
		}
		lr.Loops[f.Name] = loops
		for _, i := range st.Ifs {
			lr.Recovery.IfsFound++
			if i.Shape != ir.IfUnstructured {
				lr.Recovery.IfsShaped++
			}
		}
	}
	return lr, nil
}
