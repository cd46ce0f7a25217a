// Package bench provides the 20-benchmark workload of the reproduced
// paper: kernels re-implemented in MicroC with the computational shape of
// their EEMBC, PowerStone, and MediaBench namesakes, plus the authors'
// own suite. The originals are licensed test suites; what the experiments
// actually exercise is kernel structure — tight loops dominating runtime,
// array access patterns, bit-level manipulation — which these programs
// reproduce (see DESIGN.md, substitutions).
//
// Two EEMBC-style benchmarks (routelookup, ttsprk) contain dense switch
// statements that compile to jump tables; their kernel functions fail
// CDFG recovery with indirect-jump errors, reproducing the paper's two
// documented failures.
package bench

import (
	"fmt"
	"sync"

	"binpart/internal/binimg"
	"binpart/internal/cache"
	"binpart/internal/mcc"
)

// Benchmark is one workload program.
type Benchmark struct {
	Name        string
	Suite       string // "EEMBC", "PowerStone", "MediaBench", "Own"
	Description string
	Source      string
	// KernelFunc names the function holding the hot loops; it is always
	// call-free so the recovered region is synthesizable.
	KernelFunc string
	// FailsRecovery marks the jump-table benchmarks whose kernel CDFG
	// cannot be recovered (indirect jumps), per the paper.
	FailsRecovery bool
	// OptSweep marks the four benchmarks used in the compiler
	// optimization-level experiment.
	OptSweep bool
}

// Compile builds the benchmark at the given optimization level.
func (b Benchmark) Compile(optLevel int) (*binimg.Image, error) {
	img, err := mcc.Compile(b.Source, mcc.Options{OptLevel: optLevel})
	if err != nil {
		return nil, fmt.Errorf("bench %s: %w", b.Name, err)
	}
	return img, nil
}

// CompileCached is Compile behind a content-addressed cache keyed by the
// source text and the compiler options. The returned image is shared with
// other cache users and must be treated as read-only (every consumer in
// the pipeline is: the simulator copies data into its own pages, the
// decompiler and synthesizer only read words and symbols). A nil cache
// compiles directly.
func (b Benchmark) CompileCached(optLevel int, c *cache.Cache[*binimg.Image]) (*binimg.Image, error) {
	if c == nil {
		return b.Compile(optLevel)
	}
	img, _, err := c.GetOrCompute(CompileKey(b.Source, optLevel), func() (*binimg.Image, error) {
		return b.Compile(optLevel)
	})
	return img, err
}

// CompileKey is the compile-stage cache key recipe: every compiler input
// that can change the produced image. The keys of the suite's own
// sources at the levels mcc accepts are memoized, one slot per suite
// benchmark and level, because hashing a source costs microseconds and a
// warm request would otherwise pay it every time; the memo never holds
// more than 20 × (mcc.MaxOptLevel+1) keys, and anything else is hashed
// afresh.
func CompileKey(source string, optLevel int) cache.Key {
	if optLevel >= 0 && optLevel <= mcc.MaxOptLevel {
		for i := range suite {
			if suite[i].Source == source {
				slot := &suiteKeys[i][optLevel]
				slot.once.Do(func() { slot.key = compileKey(source, optLevel) })
				return slot.key
			}
		}
	}
	return compileKey(source, optLevel)
}

// suiteKeys is CompileKey's memo, indexed like suite and then by level.
var suiteKeys = make([][mcc.MaxOptLevel + 1]struct {
	once sync.Once
	key  cache.Key
}, len(suite))

func compileKey(source string, optLevel int) cache.Key {
	opts := mcc.Options{OptLevel: optLevel}
	return cache.NewHasher("mcc-compile").
		String(source).
		Int(int64(opts.OptLevel)).
		Uint32(opts.TextBase).
		Uint32(opts.DataBase).
		Sum()
}

// All returns the full 20-benchmark suite in a stable order.
func All() []Benchmark {
	return suite
}

// ByName returns the named benchmark.
func ByName(name string) (Benchmark, bool) {
	for _, b := range suite {
		if b.Name == name {
			return b, true
		}
	}
	return Benchmark{}, false
}

// OptSweepSet returns the four benchmarks of the optimization-level
// experiment.
func OptSweepSet() []Benchmark {
	var out []Benchmark
	for _, b := range suite {
		if b.OptSweep {
			out = append(out, b)
		}
	}
	return out
}

var suite = []Benchmark{
	// ------------------------- EEMBC-style -------------------------
	{
		Name: "autcor", Suite: "EEMBC",
		Description: "fixed-point autocorrelation over a sample window",
		KernelFunc:  "autcor_kernel",
		Source:      srcAutcor,
	},
	{
		Name: "conven", Suite: "EEMBC",
		Description: "convolutional encoder (k=3 generator polynomials)",
		KernelFunc:  "conven_kernel",
		Source:      srcConven,
	},
	{
		Name: "rgbcmy", Suite: "EEMBC",
		Description: "RGB to CMY color space conversion",
		KernelFunc:  "rgbcmy_kernel",
		Source:      srcRgbcmy,
	},
	{
		Name: "routelookup", Suite: "EEMBC",
		Description:   "packet route lookup with a dense dispatch table (jump table)",
		KernelFunc:    "route_kernel",
		Source:        srcRouteLookup,
		FailsRecovery: true,
	},
	{
		Name: "ttsprk", Suite: "EEMBC",
		Description:   "engine spark timing with dense state dispatch (jump table)",
		KernelFunc:    "spark_kernel",
		Source:        srcTtsprk,
		FailsRecovery: true,
	},
	// ----------------------- PowerStone-style -----------------------
	{
		Name: "bcnt", Suite: "PowerStone",
		Description: "population count over a word array",
		KernelFunc:  "bcnt_kernel",
		Source:      srcBcnt,
	},
	{
		Name: "blit", Suite: "PowerStone",
		Description: "bit-block transfer with per-word shifting and masking",
		KernelFunc:  "blit_kernel",
		Source:      srcBlit,
	},
	{
		Name: "crc", Suite: "PowerStone",
		Description: "table-driven CRC-32 over a message buffer",
		KernelFunc:  "crc_kernel",
		Source:      srcCrc,
		OptSweep:    true,
	},
	{
		Name: "engine", Suite: "PowerStone",
		Description: "engine controller arithmetic (interpolation tables)",
		KernelFunc:  "engine_kernel",
		Source:      srcEngine,
	},
	{
		Name: "fir", Suite: "PowerStone",
		Description: "16-tap FIR filter over a sample stream",
		KernelFunc:  "fir_kernel",
		Source:      srcFir,
		OptSweep:    true,
	},
	{
		Name: "g3fax", Suite: "PowerStone",
		Description: "group-3 fax run-length expansion",
		KernelFunc:  "g3fax_kernel",
		Source:      srcG3fax,
	},
	{
		Name: "pocsag", Suite: "PowerStone",
		Description: "POCSAG pager BCH(31,21) parity check",
		KernelFunc:  "pocsag_kernel",
		Source:      srcPocsag,
	},
	{
		Name: "ucbqsort", Suite: "PowerStone",
		Description: "quicksort-suite inner kernel (insertion pass over records)",
		KernelFunc:  "sort_kernel",
		Source:      srcUcbqsort,
	},
	// ----------------------- MediaBench-style -----------------------
	{
		Name: "adpcm", Suite: "MediaBench",
		Description: "ADPCM (IMA) encode step over a sample buffer",
		KernelFunc:  "adpcm_kernel",
		Source:      srcAdpcm,
	},
	{
		Name: "g721", Suite: "MediaBench",
		Description: "G.721 predictor coefficient update loop",
		KernelFunc:  "g721_kernel",
		Source:      srcG721,
	},
	{
		Name: "jpeg", Suite: "MediaBench",
		Description: "8-point 1-D DCT over image rows (JPEG forward transform)",
		KernelFunc:  "dct_kernel",
		Source:      srcJpeg,
	},
	{
		Name: "mpeg2", Suite: "MediaBench",
		Description: "motion estimation sum-of-absolute-differences",
		KernelFunc:  "sad_kernel",
		Source:      srcMpeg2,
	},
	// --------------------------- Own suite ---------------------------
	{
		Name: "brev", Suite: "Own",
		Description: "bit reversal of a word array",
		KernelFunc:  "brev_kernel",
		Source:      srcBrev,
		OptSweep:    true,
	},
	{
		Name: "matmul", Suite: "Own",
		Description: "dense 12x12 integer matrix multiply",
		KernelFunc:  "matmul_kernel",
		Source:      srcMatmul,
		OptSweep:    true,
	},
	{
		Name: "sobel", Suite: "Own",
		Description: "Sobel edge detection over a grayscale tile",
		KernelFunc:  "sobel_kernel",
		Source:      srcSobel,
	},
}
