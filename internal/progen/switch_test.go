package progen

import (
	"slices"
	"strings"
	"testing"

	"binpart/internal/decompile"
	"binpart/internal/dopt"
	"binpart/internal/ir"
	"binpart/internal/mcc"
	"binpart/internal/sim"
)

// TestGenerateDeterministic pins the generator contract the corpus
// harness depends on: the same (seed, config) pair always yields the
// same source and the same shape list.
func TestGenerateDeterministic(t *testing.T) {
	cfgs := []Config{DefaultConfig(), SwitchConfig(),
		{MaxStmts: 8, MaxDepth: 4, MaxLoops: 2, Arrays: true, UnrollFriendly: true, Switches: true}}
	for ci, cfg := range cfgs {
		for seed := int64(0); seed < 50; seed++ {
			a := Generate(seed, cfg)
			b := Generate(seed, cfg)
			if a.Source != b.Source {
				t.Fatalf("cfg %d seed %d: source differs between runs", ci, seed)
			}
			if len(a.Shapes) != len(b.Shapes) {
				t.Fatalf("cfg %d seed %d: shapes differ: %v vs %v", ci, seed, a.Shapes, b.Shapes)
			}
			for i := range a.Shapes {
				if a.Shapes[i] != b.Shapes[i] {
					t.Fatalf("cfg %d seed %d: shapes differ: %v vs %v", ci, seed, a.Shapes, b.Shapes)
				}
			}
		}
	}
}

// TestSwitchShapeCoverage requires every switch shape — dense, sparse,
// fallthrough, and nested-in-loop — to appear within the first 200
// seeds of the corpus configuration, so the differential corpus
// actually exercises all of them.
func TestSwitchShapeCoverage(t *testing.T) {
	counts := map[string]int{}
	withSwitch := 0
	for seed := int64(0); seed < 200; seed++ {
		p := Generate(seed, SwitchConfig())
		if len(p.Shapes) > 0 {
			withSwitch++
		}
		for _, s := range p.Shapes {
			counts[s]++
			if !strings.Contains(p.Source, "switch") {
				t.Fatalf("seed %d: shape %s reported but no switch in source", seed, s)
			}
		}
	}
	for _, shape := range []string{"switch-dense", "switch-sparse", "switch-fallthrough", "switch-in-loop"} {
		if counts[shape] == 0 {
			t.Errorf("shape %s never generated in 200 seeds (%v)", shape, counts)
		}
	}
	if withSwitch < 100 {
		t.Errorf("only %d/200 programs contain a switch; corpus too thin", withSwitch)
	}
}

// TestSwitchShapesCompileToJumpTables checks the generator's density
// promise: each shape's switch really lowers to the indirect-jump idiom
// (recovery-off decompilation fails on the kernel) and switch-table
// recovery resolves it.
func TestSwitchShapesCompileToJumpTables(t *testing.T) {
	need := map[string]bool{"switch-dense": true, "switch-sparse": true, "switch-fallthrough": true}
	for seed := int64(0); seed < 200 && len(need) > 0; seed++ {
		p := Generate(seed, SwitchConfig())
		if len(p.Shapes) == 0 {
			continue
		}
		hit := false
		for s := range need {
			if slices.Contains(p.Shapes, s) {
				delete(need, s)
				hit = true
			}
		}
		if !hit {
			continue
		}
		img, err := mcc.Compile(p.Source, mcc.Options{OptLevel: 1})
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, p.Source)
		}
		off, err := decompile.Decompile(img)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if _, failed := off.Failed["kernel"]; !failed {
			t.Errorf("seed %d (%v): switch did not compile to a jump table", seed, p.Shapes)
		}
		on, err := decompile.DecompileWith(img, decompile.Options{RecoverJumpTables: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if ferr, failed := on.Failed["kernel"]; failed {
			t.Errorf("seed %d (%v): recovery failed: %v\n%s", seed, p.Shapes, ferr, p.Source)
		}
	}
	if len(need) > 0 {
		t.Fatalf("shapes never checked: %v", need)
	}
}

// FuzzSwitchDifferential is the go test -fuzz entry point for the
// switch-recovery differential: any (seed, level) the fuzzer reaches
// must decompile cleanly and compute exactly what the binary computes.
// The seed corpus covers all four levels; `go test -fuzz
// FuzzSwitchDifferential ./internal/progen` explores from there.
func FuzzSwitchDifferential(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint8(seed%4))
	}
	f.Fuzz(func(t *testing.T, seed int64, lvlByte uint8) {
		lvl := int(lvlByte % 4)
		p := Generate(seed, SwitchConfig())
		img, err := mcc.Compile(p.Source, mcc.Options{OptLevel: lvl})
		if err != nil {
			t.Fatalf("seed %d O%d: compile: %v\n%s", seed, lvl, err, p.Source)
		}
		res, err := sim.Execute(img, sim.DefaultConfig())
		if err != nil {
			t.Fatalf("seed %d O%d: sim: %v", seed, lvl, err)
		}
		dec, err := decompile.DecompileWith(img, decompile.Options{RecoverJumpTables: true})
		if err != nil {
			t.Fatalf("seed %d O%d: decompile: %v", seed, lvl, err)
		}
		if ferr, failed := dec.Failed["kernel"]; failed {
			t.Fatalf("seed %d O%d: kernel not recovered: %v\n%s", seed, lvl, ferr, p.Source)
		}
		fn := dec.Func("kernel")
		dopt.Optimize(fn)
		st := ir.NewEvalState()
		st.Regs[ir.RegSP] = 0x7fff0000
		st.Regs[ir.RegA0] = kernelArg(t, p.Source)
		for i, bv := range img.Data {
			st.Mem[img.DataBase+uint32(i)] = bv
		}
		if err := ir.Eval(fn, st); err != nil {
			t.Fatalf("seed %d O%d: eval: %v\n%s\n%s", seed, lvl, err, p.Source, fn)
		}
		if got := st.Regs[ir.RegV0]; got != res.ExitCode {
			t.Fatalf("seed %d O%d: IR = %d, binary = %d\n%s\n%s",
				seed, lvl, got, res.ExitCode, p.Source, fn)
		}
	})
}
