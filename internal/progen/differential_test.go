package progen

import (
	"strconv"
	"strings"
	"testing"

	"binpart/internal/decompile"
	"binpart/internal/dopt"
	"binpart/internal/ir"
	"binpart/internal/mcc"
	"binpart/internal/sim"
	"binpart/internal/synth"
	"binpart/internal/vhdl"
)

// TestGeneratedProgramsCompile is a basic sanity check on the generator.
func TestGeneratedProgramsCompile(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		p := Generate(seed, DefaultConfig())
		if _, err := mcc.Compile(p.Source, mcc.Options{OptLevel: 0}); err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, p.Source)
		}
		if !strings.Contains(p.Source, "int kernel") {
			t.Fatalf("seed %d: no kernel function", seed)
		}
	}
}

// TestCrossLevelDifferential compiles each random program at -O0 through
// -O3 and requires identical results: the optimizer pipeline must be
// semantics-preserving on arbitrary (defined-behaviour) programs, not
// just the hand-written corpus.
func TestCrossLevelDifferential(t *testing.T) {
	const cases = 120
	cfgs := []Config{
		DefaultConfig(),
		{MaxStmts: 8, MaxDepth: 4, MaxLoops: 2, Arrays: true, UnrollFriendly: true},
		{MaxStmts: 4, MaxDepth: 5, MaxLoops: 1, Arrays: false},
	}
	for ci, cfg := range cfgs {
		for seed := int64(0); seed < cases/int64(len(cfgs)); seed++ {
			p := Generate(seed*31+int64(ci), cfg)
			var want int32
			for lvl := 0; lvl <= 3; lvl++ {
				img, err := mcc.Compile(p.Source, mcc.Options{OptLevel: lvl})
				if err != nil {
					t.Fatalf("cfg %d seed %d O%d: compile: %v\n%s", ci, p.Seed, lvl, err, p.Source)
				}
				res, err := sim.Execute(img, sim.DefaultConfig())
				if err != nil {
					t.Fatalf("cfg %d seed %d O%d: run: %v\n%s", ci, p.Seed, lvl, err, p.Source)
				}
				if lvl == 0 {
					want = res.ExitCode
				} else if res.ExitCode != want {
					t.Fatalf("cfg %d seed %d: O%d result %d != O0 result %d\n%s",
						ci, p.Seed, lvl, res.ExitCode, want, p.Source)
				}
			}
		}
	}
}

// TestDecompileOptimizeDifferential is the repository's strongest
// correctness property: for random programs at every optimization level,
// the decompiled-and-optimized kernel IR must compute exactly what the
// binary computes. The oracle is the simulator's exit code; the subject
// is the IR interpreter running the kernel after the full dopt pipeline
// (including stack-op removal, rerolling, and promotion).
func TestDecompileOptimizeDifferential(t *testing.T) {
	const perCfg = 30
	cfgs := []Config{
		DefaultConfig(),
		{MaxStmts: 6, MaxDepth: 3, MaxLoops: 3, Arrays: true, UnrollFriendly: true},
	}
	for ci, cfg := range cfgs {
		for seed := int64(0); seed < perCfg; seed++ {
			p := Generate(seed*17+3+int64(ci), cfg)
			for lvl := 0; lvl <= 3; lvl++ {
				img, err := mcc.Compile(p.Source, mcc.Options{OptLevel: lvl})
				if err != nil {
					t.Fatalf("seed %d O%d: %v", p.Seed, lvl, err)
				}
				res, err := sim.Execute(img, sim.DefaultConfig())
				if err != nil {
					t.Fatalf("seed %d O%d: %v", p.Seed, lvl, err)
				}

				dec, err := decompile.Decompile(img)
				if err != nil {
					t.Fatalf("seed %d O%d: %v", p.Seed, lvl, err)
				}
				if ferr, failed := dec.Failed["kernel"]; failed {
					t.Fatalf("seed %d O%d: kernel recovery failed: %v\n%s", p.Seed, lvl, ferr, p.Source)
				}
				f := dec.Func("kernel")
				dopt.Optimize(f)

				// Recover the argument main passes (main is
				// "return kernel(C)", so C is a constant in the source).
				arg := kernelArg(t, p.Source)
				st := ir.NewEvalState()
				st.Regs[ir.RegSP] = 0x7fff0000
				st.Regs[ir.RegA0] = arg
				for i, bv := range img.Data {
					st.Mem[img.DataBase+uint32(i)] = bv
				}
				if err := ir.Eval(f, st); err != nil {
					t.Fatalf("seed %d O%d: eval: %v\n%s\n%s", p.Seed, lvl, err, p.Source, f)
				}
				if got := st.Regs[ir.RegV0]; got != res.ExitCode {
					t.Fatalf("seed %d O%d: IR kernel = %d, binary = %d\n%s\n%s",
						p.Seed, lvl, got, res.ExitCode, p.Source, f)
				}
			}
		}
	}
}

// kernelArg extracts C from "int main() { return kernel(C); }".
func kernelArg(t *testing.T, src string) int32 {
	t.Helper()
	i := strings.LastIndex(src, "kernel(")
	rest := src[i+len("kernel("):]
	j := strings.Index(rest, ")")
	v, err := strconv.Atoi(strings.TrimSpace(rest[:j]))
	if err != nil {
		t.Fatalf("cannot parse kernel argument: %v", err)
	}
	return int32(v)
}

// TestJumpTableDifferential fuzzes the indirect-jump recovery extension:
// random programs with dense switches are compiled at every level,
// decompiled with jump-table recovery, fully optimized, and interpreted —
// the result must match the binary's.
func TestJumpTableDifferential(t *testing.T) {
	cfg := Config{MaxStmts: 5, MaxDepth: 3, MaxLoops: 2, Arrays: true, Switches: true}
	for seed := int64(0); seed < 25; seed++ {
		p := Generate(seed*13+7, cfg)
		if !strings.Contains(p.Source, "switch") {
			continue
		}
		for lvl := 0; lvl <= 3; lvl++ {
			img, err := mcc.Compile(p.Source, mcc.Options{OptLevel: lvl})
			if err != nil {
				t.Fatalf("seed %d O%d: %v\n%s", p.Seed, lvl, err, p.Source)
			}
			res, err := sim.Execute(img, sim.DefaultConfig())
			if err != nil {
				t.Fatalf("seed %d O%d: %v", p.Seed, lvl, err)
			}
			dec, err := decompile.DecompileWith(img, decompile.Options{RecoverJumpTables: true})
			if err != nil {
				t.Fatalf("seed %d O%d: %v", p.Seed, lvl, err)
			}
			if ferr, failed := dec.Failed["kernel"]; failed {
				t.Fatalf("seed %d O%d: kernel not recovered: %v\n%s", p.Seed, lvl, ferr, p.Source)
			}
			f := dec.Func("kernel")
			dopt.Optimize(f)
			st := ir.NewEvalState()
			st.Regs[ir.RegSP] = 0x7fff0000
			st.Regs[ir.RegA0] = kernelArg(t, p.Source)
			for i, bv := range img.Data {
				st.Mem[img.DataBase+uint32(i)] = bv
			}
			if err := ir.Eval(f, st); err != nil {
				t.Fatalf("seed %d O%d: eval: %v\n%s\n%s", p.Seed, lvl, err, p.Source, f)
			}
			if got := st.Regs[ir.RegV0]; got != res.ExitCode {
				t.Fatalf("seed %d O%d: IR = %d, binary = %d\n%s\n%s",
					p.Seed, lvl, got, res.ExitCode, p.Source, f)
			}
		}
	}
}

// TestRTLDifferential drives random kernels through the ENTIRE flow —
// compile, decompile, optimize, synthesize, emit VHDL — and executes the
// emitted RTL text against the IR interpreter. A mismatch anywhere in the
// chain (lifting, passes, scheduling, emission, RTL semantics) fails.
func TestRTLDifferential(t *testing.T) {
	cfg := Config{MaxStmts: 5, MaxDepth: 3, MaxLoops: 2, Arrays: true}
	for seed := int64(0); seed < 40; seed++ {
		p := Generate(seed*41+11, cfg)
		img, err := mcc.Compile(p.Source, mcc.Options{OptLevel: 2})
		if err != nil {
			t.Fatalf("seed %d: %v", p.Seed, err)
		}
		dec, err := decompile.Decompile(img)
		if err != nil {
			t.Fatalf("seed %d: %v", p.Seed, err)
		}
		f := dec.Func("kernel")
		dopt.Optimize(f)
		arg := kernelArg(t, p.Source)

		st := ir.NewEvalState()
		st.Regs[ir.RegSP] = 0x7fff0000
		st.Regs[ir.RegA0] = arg
		for i, bv := range img.Data {
			st.Mem[img.DataBase+uint32(i)] = bv
		}
		if err := ir.Eval(f, st); err != nil {
			t.Fatalf("seed %d: eval: %v", p.Seed, err)
		}

		d, err := synth.Synthesize(synth.FuncRegion(f), img, synth.DefaultOptions())
		if err != nil {
			t.Fatalf("seed %d: synth: %v", p.Seed, err)
		}
		text, err := vhdl.Emit(d)
		if err != nil {
			t.Fatalf("seed %d: emit: %v", p.Seed, err)
		}
		mem := map[uint32]byte{}
		for i, bv := range img.Data {
			mem[img.DataBase+uint32(i)] = bv
		}
		sim2, err := vhdl.SimulateDesign(text, vhdl.SimConfig{Arg0: arg, Mem: mem})
		if err != nil {
			t.Fatalf("seed %d: rtl sim: %v\n%s\n%s", p.Seed, err, p.Source, text)
		}
		if sim2.Result != st.Regs[ir.RegV0] {
			t.Fatalf("seed %d: RTL = %d, IR = %d\n%s\n%s\n%s",
				p.Seed, sim2.Result, st.Regs[ir.RegV0], p.Source, f, text)
		}
		for i := range img.Data {
			a := img.DataBase + uint32(i)
			if sim2.Mem[a] != st.Mem[a] {
				t.Fatalf("seed %d: RTL mem[0x%x] = %d, IR = %d\n%s",
					p.Seed, a, sim2.Mem[a], st.Mem[a], p.Source)
			}
		}
	}
}
