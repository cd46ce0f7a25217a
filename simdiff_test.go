// Differential test for the fast-path interpreter: every benchmark at
// every optimization level runs through both the block-dispatched fast
// stepper (sim.Execute) and the original per-instruction reference
// stepper (sim.ExecuteReference), and the architectural results must be
// bit-identical — steps, modeled cycles, exit code, and both profile
// maps. This is the equivalence proof the partitioning numbers rest on:
// if it holds, every table in EXPERIMENTS.md is unchanged by the fast
// path by construction.
package binpart

import (
	"fmt"
	"reflect"
	"testing"

	"binpart/internal/bench"
	"binpart/internal/sim"
)

func TestSimFastPathMatchesReference(t *testing.T) {
	for _, bm := range bench.All() {
		for lvl := 0; lvl <= 3; lvl++ {
			bm, lvl := bm, lvl
			t.Run(fmt.Sprintf("%s/O%d", bm.Name, lvl), func(t *testing.T) {
				t.Parallel()
				img, err := bm.Compile(lvl)
				if err != nil {
					t.Fatal(err)
				}
				cfg := sim.DefaultConfig()
				cfg.Profile = true
				fast, err := sim.Execute(img, cfg)
				if err != nil {
					t.Fatalf("fast path: %v", err)
				}
				ref, err := sim.ExecuteReference(img, cfg)
				if err != nil {
					t.Fatalf("reference: %v", err)
				}
				if fast.Steps != ref.Steps {
					t.Errorf("Steps: fast %d, reference %d", fast.Steps, ref.Steps)
				}
				if fast.Cycles != ref.Cycles {
					t.Errorf("Cycles: fast %d, reference %d", fast.Cycles, ref.Cycles)
				}
				if fast.ExitCode != ref.ExitCode {
					t.Errorf("ExitCode: fast %d, reference %d", fast.ExitCode, ref.ExitCode)
				}
				if fast.Profile == nil || ref.Profile == nil {
					t.Fatalf("missing profile: fast %v, reference %v", fast.Profile != nil, ref.Profile != nil)
				}
				if !reflect.DeepEqual(fast.Profile.InstCount, ref.Profile.InstCount) {
					t.Errorf("InstCount maps differ (fast %d entries, reference %d)",
						len(fast.Profile.InstCount), len(ref.Profile.InstCount))
				}
				if !reflect.DeepEqual(fast.Profile.EdgeCount, ref.Profile.EdgeCount) {
					t.Errorf("EdgeCount maps differ (fast %d entries, reference %d)",
						len(fast.Profile.EdgeCount), len(ref.Profile.EdgeCount))
				}
			})
		}
	}
}

// TestSimFastPathMatchesReferenceUnprofiled covers the profiling-off
// configuration, whose fast path skips counter maintenance entirely.
func TestSimFastPathMatchesReferenceUnprofiled(t *testing.T) {
	for _, bm := range bench.All() {
		bm := bm
		t.Run(bm.Name, func(t *testing.T) {
			t.Parallel()
			img, err := bm.Compile(1)
			if err != nil {
				t.Fatal(err)
			}
			cfg := sim.DefaultConfig()
			fast, err := sim.Execute(img, cfg)
			if err != nil {
				t.Fatalf("fast path: %v", err)
			}
			ref, err := sim.ExecuteReference(img, cfg)
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			if fast.Steps != ref.Steps || fast.Cycles != ref.Cycles || fast.ExitCode != ref.ExitCode {
				t.Errorf("fast %+v, reference %+v", fast, ref)
			}
			if fast.Profile != nil || ref.Profile != nil {
				t.Error("unexpected profile on unprofiled run")
			}
		})
	}
}

// TestSimStepLimitMatchesReference pins the threaded engine's
// step-budget truncation: a budget that expires inside a block runs only
// that block's covered prefix, and must stop after exactly the same
// number of retired instructions as the per-instruction stepper — same
// error text (and so the same stop PC), steps, cycles, and profile maps
// (nil on every error) — at every limit from 1 to 512, which walks the
// stop across every offset of crc's hot blocks.
func TestSimStepLimitMatchesReference(t *testing.T) {
	bm, ok := bench.ByName("crc")
	if !ok {
		t.Fatal("crc benchmark missing")
	}
	img, err := bm.Compile(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, profile := range []bool{false, true} {
		for limit := uint64(1); limit <= 512; limit++ {
			cfg := sim.DefaultConfig()
			cfg.MaxSteps = limit
			cfg.Profile = profile
			fast, ferr := sim.Execute(img, cfg)
			ref, rerr := sim.ExecuteReference(img, cfg)
			label := fmt.Sprintf("limit %d profile=%v", limit, profile)
			if (ferr == nil) != (rerr == nil) {
				t.Fatalf("%s: fast err %v, reference err %v", label, ferr, rerr)
			}
			if ferr != nil && ferr.Error() != rerr.Error() {
				t.Errorf("%s: fast err %q, reference err %q", label, ferr, rerr)
			}
			if fast.Steps != ref.Steps || fast.Cycles != ref.Cycles {
				t.Errorf("%s: fast steps=%d cycles=%d, reference steps=%d cycles=%d",
					label, fast.Steps, fast.Cycles, ref.Steps, ref.Cycles)
			}
			if !reflect.DeepEqual(fast.Profile, ref.Profile) {
				t.Errorf("%s: profiles differ (fast %v, reference %v)",
					label, fast.Profile != nil, ref.Profile != nil)
			}
		}
	}
}
