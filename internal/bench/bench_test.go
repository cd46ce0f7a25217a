package bench

import (
	"errors"
	"testing"

	"binpart/internal/decompile"
	"binpart/internal/mcc"
	"binpart/internal/sim"
)

func TestSuiteShape(t *testing.T) {
	all := All()
	if len(all) != 20 {
		t.Fatalf("suite has %d benchmarks, want 20 (as in the paper)", len(all))
	}
	suites := map[string]int{}
	failing := 0
	optSweep := 0
	names := map[string]bool{}
	for _, b := range all {
		if names[b.Name] {
			t.Errorf("duplicate benchmark name %q", b.Name)
		}
		names[b.Name] = true
		suites[b.Suite]++
		if b.FailsRecovery {
			failing++
		}
		if b.OptSweep {
			optSweep++
		}
		if b.KernelFunc == "" || b.Description == "" {
			t.Errorf("%s: missing metadata", b.Name)
		}
	}
	if failing != 2 {
		t.Errorf("%d benchmarks marked as recovery failures, want 2 (the paper's EEMBC pair)", failing)
	}
	if optSweep != 4 {
		t.Errorf("%d benchmarks in the optimization sweep, want 4", optSweep)
	}
	for _, s := range []string{"EEMBC", "PowerStone", "MediaBench", "Own"} {
		if suites[s] == 0 {
			t.Errorf("no benchmarks from suite %s", s)
		}
	}
	if suites["EEMBC"] < 2 {
		t.Error("need at least the two failing EEMBC benchmarks")
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("crc"); !ok {
		t.Error("crc not found")
	}
	if _, ok := ByName("nope"); ok {
		t.Error("ByName(nope) succeeded")
	}
	if got := len(OptSweepSet()); got != 4 {
		t.Errorf("OptSweepSet has %d entries", got)
	}
}

// TestCompileKeyMemo checks the memoized keys against the recipe for
// every suite benchmark and level, that the memo serves without
// allocating, and that anything outside the suite × O0–O3 table — a
// changed source, a level mcc rejects — is hashed afresh.
func TestCompileKeyMemo(t *testing.T) {
	for _, b := range All() {
		for lvl := 0; lvl <= mcc.MaxOptLevel; lvl++ {
			for range 2 { // the second call is served from the memo
				if got, want := CompileKey(b.Source, lvl), compileKey(b.Source, lvl); got != want {
					t.Fatalf("%s -O%d: CompileKey %x, recipe %x", b.Name, lvl, got, want)
				}
			}
		}
	}
	crc, _ := ByName("crc")
	if n := testing.AllocsPerRun(100, func() { CompileKey(crc.Source, 2) }); n != 0 {
		t.Errorf("memoized CompileKey allocates %.0f times per call", n)
	}
	edited := crc.Source + "\n"
	if CompileKey(edited, 1) != compileKey(edited, 1) || CompileKey(edited, 1) == CompileKey(crc.Source, 1) {
		t.Error("an edited source must not share the suite's memoized key")
	}
	for _, lvl := range []int{-1, mcc.MaxOptLevel + 1} {
		if CompileKey(crc.Source, lvl) != compileKey(crc.Source, lvl) {
			t.Errorf("level %d: CompileKey differs from the recipe", lvl)
		}
	}
}

// TestAllBenchmarksRunAtAllLevels is the suite's core validation: every
// benchmark compiles at O0..O3, runs to completion, and produces the SAME
// checksum at every level (the compiler levels are semantics-preserving).
func TestAllBenchmarksRunAtAllLevels(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			var want int32
			for lvl := 0; lvl <= 3; lvl++ {
				img, err := b.Compile(lvl)
				if err != nil {
					t.Fatalf("O%d: %v", lvl, err)
				}
				res, err := sim.Execute(img, sim.DefaultConfig())
				if err != nil {
					t.Fatalf("O%d: %v", lvl, err)
				}
				if lvl == 0 {
					want = res.ExitCode
					if res.Steps < 10_000 {
						t.Errorf("suspiciously short run: %d instructions", res.Steps)
					}
				} else if res.ExitCode != want {
					t.Errorf("O%d checksum %d != O0 checksum %d", lvl, res.ExitCode, want)
				}
			}
		})
	}
}

// TestRecoveryExpectations checks that exactly the marked benchmarks fail
// kernel CDFG recovery, and fail for the documented reason.
func TestRecoveryExpectations(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			img, err := b.Compile(1)
			if err != nil {
				t.Fatal(err)
			}
			res, err := decompile.Decompile(img)
			if err != nil {
				t.Fatal(err)
			}
			ferr, failed := res.Failed[b.KernelFunc]
			if b.FailsRecovery {
				if !failed {
					t.Errorf("kernel %s recovered despite jump table", b.KernelFunc)
				} else if !errors.Is(ferr, decompile.ErrIndirectJump) {
					t.Errorf("failure reason = %v, want indirect jump", ferr)
				}
				return
			}
			if failed {
				t.Errorf("kernel %s failed recovery: %v", b.KernelFunc, ferr)
			}
			if res.Func(b.KernelFunc) == nil {
				t.Errorf("kernel %s missing from recovered functions", b.KernelFunc)
			}
		})
	}
}

// TestKernelsDominateRuntime verifies the 90-10 premise: the kernel
// function accounts for the bulk of each benchmark's instruction count.
func TestKernelsDominateRuntime(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			img, err := b.Compile(1)
			if err != nil {
				t.Fatal(err)
			}
			cfg := sim.DefaultConfig()
			cfg.Profile = true
			res, err := sim.Execute(img, cfg)
			if err != nil {
				t.Fatal(err)
			}
			sym, ok := img.Lookup(b.KernelFunc)
			if !ok {
				t.Fatalf("no symbol for %s", b.KernelFunc)
			}
			var inKernel, total uint64
			for pc, n := range res.Profile.InstCount {
				total += n
				if pc >= sym.Addr && pc < sym.Addr+sym.Size {
					inKernel += n
				}
			}
			frac := float64(inKernel) / float64(total)
			if frac < 0.5 {
				t.Errorf("kernel covers only %.0f%% of execution; the 90-10 premise needs a dominant kernel", 100*frac)
			}
		})
	}
}
