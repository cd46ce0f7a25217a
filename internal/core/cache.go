package core

import (
	"fmt"
	"strings"

	"binpart/internal/binimg"
	"binpart/internal/cache"
	"binpart/internal/decompile"
	"binpart/internal/dopt"
	"binpart/internal/ir"
	"binpart/internal/obs"
	"binpart/internal/obs/hist"
	"binpart/internal/sim"
	"binpart/internal/synth"
)

// Caches bundles the content-addressed stage caches of the flow. All
// fields are optional (nil disables that stage's cache) and a nil *Caches
// disables caching entirely, so RunWith(img, opts, nil) ≡ Run(img, opts).
//
// Cached values are shared: a hit returns the same pointers a previous
// run produced. Every consumer in this package treats them as immutable —
// profiles are only read, lifted functions are only traversed, designs
// are only costed and emitted — which is what makes sharing across a
// concurrent experiment sweep safe (and what `go test -race` checks).
type Caches struct {
	// Compile memoizes MicroC compilation: source text + mcc options.
	Compile *cache.Cache[*binimg.Image]
	// Sim memoizes profiling simulation: image bytes + sim config.
	Sim *cache.Cache[sim.Result]
	// Lift memoizes decompilation plus the decompiler-optimization
	// pipeline: image bytes + decompile options + dopt config.
	Lift *cache.Cache[*LiftResult]
	// Analysis memoizes the assembled platform-independent Analysis:
	// image bytes + every option the analysis stages read (the platform,
	// area budget, and algorithm are evaluate-time inputs and excluded).
	Analysis *cache.Cache[*Analysis]
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
// calls compute directly and never hashes; otherwise it looks up key()
// in c (computing on a miss) and records on sp how the lookup was
// served. Routing every cached stage call through here is what keeps the
// trace's per-stage span outcomes reconciling with the caches' Stats.
func cached[V any](c *cache.Cache[V], sp *obs.Span, key func() cache.Key, compute func() (V, error)) (V, error) {
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
		Compile:  cache.New[*binimg.Image](defaultCompileEntries),
		Sim:      cache.New[sim.Result](defaultSimEntries),
		Lift:     cache.New[*LiftResult](defaultLiftEntries),
		Analysis: cache.New[*Analysis](defaultAnalysisEntries),
	}
}

// compileCodec round-trips compiled images through the SBF byte format.
func compileCodec() cache.Codec[*binimg.Image] {
	return cache.Codec[*binimg.Image]{
		Marshal:   func(im *binimg.Image) ([]byte, error) { return im.Marshal() },
		Unmarshal: binimg.Unmarshal,
	}
}

// WithDiskMax attaches an on-disk tier under dir to the stages whose
// values have a byte format: compilation (SBF images) and simulation (gob
// results). The Analysis stage stays off disk so a warm single-process
// run keeps candidate Designs (VHDL emission) intact. When the
// directory's blobs exceed maxBytes, the store evicts oldest-mtime-first
// in a background sweep (0 means unbounded). This is the -cachedir and
// -cachedir-max flags.
func (c *Caches) WithDiskMax(dir string, maxBytes int64) error {
	store, err := cache.OpenDiskMax(dir, maxBytes)
	if err != nil {
		return err
	}
	c.Compile.WithDisk(store, compileCodec())
	c.Sim.WithDisk(store, SimCodec())
	return nil
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

// DiskLatencyMap snapshots the disk read-latency histogram of each stage
// cache that WithDiskMax can give a disk tier (compile and sim), keyed by
// stage name. Stages with no disk tier are omitted, so a memory-only run
// contributes nothing.
func (c *Caches) DiskLatencyMap() map[string]hist.Snapshot {
	if c == nil {
		return nil
	}
	out := map[string]hist.Snapshot{}
	if snap, ok := c.Compile.DiskLatency(); ok {
		out["compile"] = snap
	}
	if snap, ok := c.Sim.DiskLatency(); ok {
		out["sim"] = snap
	}
	return out
}

// StatsString formats per-stage hit/miss/eviction counters.
func (c *Caches) StatsString() string {
	if c == nil {
		return "cache: disabled\n"
	}
	stats := c.StatsMap()
	var b strings.Builder
	b.WriteString("cache  stage      hits   miss  disk  wait  corrupt  evict  entries\n")
	for _, name := range cacheNames {
		s := stats[name]
		fmt.Fprintf(&b, "cache  %-8s %6d %6d %5d %5d %7d %6d %8d\n",
			name, s.Hits, s.Misses, s.DiskHits, s.Waits, s.Corrupt, s.Evictions, s.Entries)
	}
	return b.String()
}

func hashSimConfig(h *cache.Hasher, cfg sim.Config) {
	h.Uint32(cfg.StackTop).Uint64(cfg.MaxSteps).Bool(cfg.Profile)
	h.Int(int64(cfg.Engine))
	cm := cfg.Cycles
	h.Uint64(cm.ALU).Uint64(cm.Load).Uint64(cm.Store)
	h.Uint64(cm.BranchTaken).Uint64(cm.BranchNot).Uint64(cm.Jump)
	h.Uint64(cm.Mult).Uint64(cm.Div)
}

func hashDoptConfig(h *cache.Hasher, c dopt.Config) {
	h.Bool(c.NoStackRemoval).Bool(c.NoReroll).Bool(c.NoPromote)
	h.Bool(c.NoStrengthRed).Bool(c.NoWidthReduce)
}

func hashSynthOptions(h *cache.Hasher, o synth.Options) {
	h.Int(int64(o.Resources.MemPorts)).Int(int64(o.Resources.Multipliers))
	h.Int(int64(o.Resources.Dividers))
	h.Float64(o.ClockNs).Bool(o.Pipeline)
}

func simKey(imgKey cache.Key, cfg sim.Config) cache.Key {
	h := cache.NewHasher("sim")
	h.Bytes(imgKey[:])
	hashSimConfig(h, cfg)
	return h.Sum()
}

func liftKey(imgKey cache.Key, dec decompile.Options, cfg dopt.Config) cache.Key {
	h := cache.NewHasher("lift")
	h.Bytes(imgKey[:]).Bool(dec.RecoverJumpTables)
	hashDoptConfig(h, cfg)
	return h.Sum()
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
