package core

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
	"sync"

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
	// Synth memoizes behavioral synthesis: the region's CDFG signature
	// plus the synthesis configuration.
	Synth *cache.Cache[*synth.Design]
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
// levels; synthesis sees a few candidate regions per binary.
const (
	defaultCompileEntries  = 256
	defaultSimEntries      = 256
	defaultLiftEntries     = 256
	defaultSynthEntries    = 2048
	defaultAnalysisEntries = 256
)

// NewCaches builds an in-memory cache set with default capacities.
func NewCaches() *Caches {
	return &Caches{
		Compile:  cache.New[*binimg.Image](defaultCompileEntries),
		Sim:      cache.New[sim.Result](defaultSimEntries),
		Lift:     cache.New[*LiftResult](defaultLiftEntries),
		Synth:    cache.New[*synth.Design](defaultSynthEntries),
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
var cacheNames = []string{"compile", "sim", "lift", "synth", "analysis"}

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
		"synth":    c.Synth.Stats(),
		"analysis": c.Analysis.Stats(),
	}
}

// DiskLatencyMap snapshots every stage cache's disk read-latency
// histogram, keyed by stage name. Stages with no disk tier are omitted,
// so a memory-only run contributes nothing.
func (c *Caches) DiskLatencyMap() map[string]hist.Snapshot {
	if c == nil {
		return nil
	}
	out := map[string]hist.Snapshot{}
	for _, st := range []struct {
		name string
		c    interface{ DiskLatency() (hist.Snapshot, bool) }
	}{
		{"compile", c.Compile}, {"sim", c.Sim}, {"lift", c.Lift},
		{"synth", c.Synth}, {"analysis", c.Analysis},
	} {
		if snap, ok := st.c.DiskLatency(); ok {
			out[st.name] = snap
		}
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

// ImageKey content-addresses a binary image: every field the simulator,
// decompiler, and synthesizer can observe. The hash is memoized on the
// image (see binimg.Image.Key), so repeated stage-cache lookups on one
// image don't rehash its text section.
func ImageKey(img *binimg.Image) cache.Key {
	return img.Key()
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
	h.Int(int64(o.Resources.Dividers)).Int(int64(o.Resources.MemBanks))
	h.Float64(o.ClockNs).Bool(o.Pipeline).Bool(o.MoveArrays)
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

// funcSignature content-addresses a lifted function's CDFG: every block's
// instructions (all operand, width, and control fields) plus the CFG edge
// structure. Two functions with equal signatures schedule, allocate, and
// cost identically. The fields are encoded at fixed widths, with a length
// before each variable-length part, into one pooled buffer that is hashed
// in a single write.
func funcSignature(f *ir.Func) cache.Key {
	bp := sigBufPool.Get().(*[]byte)
	le := binary.LittleEndian
	arg := func(b []byte, a ir.Arg) []byte {
		b = append(b, boolByte(a.IsConst))
		b = le.AppendUint32(b, uint32(a.Loc))
		return le.AppendUint32(b, uint32(a.Val))
	}
	b := le.AppendUint64((*bp)[:0], uint64(len(f.Name)))
	b = append(b, f.Name...)
	b = le.AppendUint32(b, f.Entry)
	b = le.AppendUint64(b, uint64(len(f.Blocks)))
	for _, blk := range f.Blocks {
		b = le.AppendUint64(b, uint64(blk.Index))
		b = le.AppendUint32(b, blk.Start)
		b = le.AppendUint64(b, uint64(len(blk.Instrs)))
		for i := range blk.Instrs {
			in := &blk.Instrs[i]
			b = le.AppendUint64(b, uint64(in.Op))
			b = le.AppendUint32(b, uint32(in.Dst))
			b = arg(b, in.A)
			b = arg(b, in.B)
			b = le.AppendUint32(b, uint32(in.Off))
			b = le.AppendUint64(b, uint64(in.Width))
			b = append(b, boolByte(in.Signed))
			b = le.AppendUint64(b, uint64(in.Cond))
			b = le.AppendUint32(b, in.Target)
			b = le.AppendUint32(b, in.Addr)
			b = le.AppendUint64(b, uint64(in.WidthBits))
			var table []uint32
			if in.Table != nil {
				table = in.Table.Targets
			}
			b = le.AppendUint64(b, uint64(len(table)))
			for _, t := range table {
				b = le.AppendUint32(b, t)
			}
		}
		b = le.AppendUint64(b, uint64(len(blk.Succs)))
		for _, s := range blk.Succs {
			b = le.AppendUint64(b, uint64(s.Index))
		}
	}
	k := cache.NewHasher("cdfg").Bytes(b).Sum()
	*bp = b
	sigBufPool.Put(bp)
	return k
}

// sigBufPool recycles funcSignature's encoding buffers.
var sigBufPool = sync.Pool{New: func() any { return new([]byte) }}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// synthCtx threads the synthesis cache and the observability scope
// through candidate construction. The zero context synthesizes directly
// and records nothing.
type synthCtx struct {
	cache *cache.Cache[*synth.Design]
	// sig is the enclosing function's CDFG signature, computed once per
	// function while building its candidates (only when cache is set).
	sig cache.Key
	// obs attributes per-region synth spans to the current sweep point.
	obs *obs.Scope
}

// synthesize is synth.Synthesize behind the content-addressed cache. The
// key covers the function CDFG, the region's block subset, the image key
// (alias analysis and block-RAM sizing read the symbol table), and the
// synthesis options; the platform's CPU clock and FPGA device are
// deliberately excluded — synthesis is platform-independent, which is
// what makes the clock and area sweeps nearly free on a warm cache.
func (sc *synthCtx) synthesize(r synth.Region, img *binimg.Image, opts synth.Options) (*synth.Design, error) {
	sp := sc.obs.Start(obs.StageSynth)
	d, err := cached(sc.cache, &sp,
		func() cache.Key { return synthKey(img.Key(), sc.sig, r, opts) },
		func() (*synth.Design, error) { return synth.Synthesize(r, img, opts) })
	sp.End()
	return d, err
}

func synthKey(imgKey, sig cache.Key, r synth.Region, opts synth.Options) cache.Key {
	h := cache.NewHasher("synth")
	h.Bytes(imgKey[:]).Bytes(sig[:]).String(r.Name)
	if r.Blocks == nil {
		h.Int(-1)
	} else {
		idx := make([]int, 0, len(r.Blocks))
		for i := range r.Blocks {
			idx = append(idx, i)
		}
		sort.Ints(idx)
		h.Int(int64(len(idx)))
		for _, i := range idx {
			h.Int(int64(i))
		}
	}
	hashSynthOptions(h, opts)
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
