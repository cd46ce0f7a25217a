package progen

import (
	"fmt"
	"reflect"
	"testing"

	"binpart/internal/mcc"
	"binpart/internal/sim"
)

// TestEngineDifferentialShapes runs generated programs from the
// long-block (straightline), short-block (branchy), and switch-rich
// shapes through the threaded engine and the reference stepper and
// requires bit-identical results — steps, cycles, exit code, both
// profile maps. The first two shapes bracket the block translator: long
// unbranched blocks amortize the per-block charge over many superops,
// branch-per-statement kernels chain a new block every instruction or
// two, and the engines must agree on both extremes.
func TestEngineDifferentialShapes(t *testing.T) {
	shapes := []struct {
		name string
		cfg  Config
	}{
		{"straightline", StraightlineConfig()},
		{"branchy", BranchyConfig()},
		{"switch", SwitchConfig()},
	}
	for _, sh := range shapes {
		sh := sh
		t.Run(sh.name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(0); seed < 12; seed++ {
				p := Generate(seed, sh.cfg)
				lvl := int(seed) % 4
				img, err := mcc.Compile(p.Source, mcc.Options{OptLevel: lvl})
				if err != nil {
					t.Fatalf("seed %d -O%d: compile: %v\n%s", seed, lvl, err, p.Source)
				}
				cfg := sim.DefaultConfig()
				cfg.Profile = true
				cfg.Engine = sim.EngineReference
				ref, err := sim.Execute(img, cfg)
				if err != nil {
					t.Fatalf("seed %d -O%d: reference: %v", seed, lvl, err)
				}
				cfg.Engine = sim.EngineThreaded
				got, err := sim.Execute(img, cfg)
				label := fmt.Sprintf("seed %d -O%d", seed, lvl)
				if err != nil {
					t.Fatalf("%s: threaded: %v", label, err)
				}
				if got.Steps != ref.Steps || got.Cycles != ref.Cycles || got.ExitCode != ref.ExitCode {
					t.Errorf("%s: steps/cycles/exit %d/%d/%d != reference %d/%d/%d",
						label, got.Steps, got.Cycles, got.ExitCode, ref.Steps, ref.Cycles, ref.ExitCode)
				}
				if !reflect.DeepEqual(got.Profile.InstCount, ref.Profile.InstCount) {
					t.Errorf("%s: InstCount differs", label)
				}
				if !reflect.DeepEqual(got.Profile.EdgeCount, ref.Profile.EdgeCount) {
					t.Errorf("%s: EdgeCount differs", label)
				}
			}
		})
	}
}

// TestShapeMarkers checks the generator records the shape each
// differential program was drawn from.
func TestShapeMarkers(t *testing.T) {
	if p := Generate(1, StraightlineConfig()); !p.HasShape("straightline") {
		t.Error("straightline program missing its shape marker")
	}
	if p := Generate(1, BranchyConfig()); !p.HasShape("branch-dense") {
		t.Error("branchy program missing its shape marker")
	}
}
