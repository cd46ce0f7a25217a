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
	"binpart/internal/binimg"
	"binpart/internal/mips"
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

// TestSimOpcodesMatchReference runs one hand-assembled program per
// opcode that no suite program or corpus run executes (the divides with
// their divide-by-zero and INT_MIN/-1 cases, MULTU, the HI/LO moves, NOR,
// SLTU, the narrow loads with their sign extension, SH, BLEZ, J and
// JALR) through both engines, profiling on. The Results must be equal,
// and the exit code must be the value computed here in Go.
func TestSimOpcodesMatchReference(t *testing.T) {
	// hilo leaves LO ^ HI<<16 in $v0; hl computes the same.
	const hilo = "\n mflo $t2\n mfhi $t3\n sll $t3, $t3, 16\n xor $v0, $t2, $t3"
	hl := func(lo, hi uint32) int32 { return int32(lo ^ hi<<16) }
	const data = "lui $t0, 0x1000\n"
	n7 := int32(-7)
	m7, m3, m5 := uint32(n7), uint32(1<<32-3), uint32(1<<32-5)
	prod := uint64(m3) * uint64(m5)
	progs := map[string]struct {
		src  string
		want int32
	}{
		"div":            {"li $t0, -7\n li $t1, 2\n div $t0, $t1" + hilo, hl(uint32(n7/2), uint32(n7%2))},
		"div by zero":    {"li $t0, 9\n div $t0, $zero" + hilo, hl(0, 9)},
		"div INT_MIN/-1": {"lui $t0, 0x8000\n li $t1, -1\n div $t0, $t1" + hilo, hl(1<<31, 0)},
		"divu":           {"li $t0, -7\n li $t1, 3\n divu $t0, $t1" + hilo, hl(m7/3, m7%3)},
		"divu by zero":   {"li $t0, -7\n divu $t0, $zero" + hilo, hl(0, m7)},
		"multu":          {"li $t0, -3\n li $t1, -5\n multu $t0, $t1" + hilo, hl(uint32(prod), uint32(prod>>32))},
		"mthi mtlo":      {"li $t0, -300\n li $t1, 77\n mthi $t0\n mtlo $t1" + hilo, hl(77, 1<<32-300)},
		"nor":            {"li $t0, 0x0f0f\n li $t1, -256\n nor $v0, $t0, $t1", ^(0x0f0f | -256)},
		"sltu": {"li $t0, -1\n li $t1, 1\n sltu $t2, $t0, $t1\n sltu $t3, $t1, $t0\n sll $t3, $t3, 1\n or $v0, $t2, $t3",
			2}, // 0xffffffff < 1 is false, 1 < 0xffffffff true
		"lb":             {data + "li $t1, 0x80\n sb $t1, 1($t0)\n lb $v0, 1($t0)", -128},
		"lh":             {data + "li $t1, -2\n sh $t1, 2($t0)\n lh $v0, 2($t0)", -2},
		"lhu":            {data + "li $t1, -2\n sh $t1, 2($t0)\n lhu $v0, 2($t0)", 0xfffe},
		"sh":             {data + "li $t1, -1\n sw $t1, 0($t0)\n li $t2, 0x1234\n sh $t2, 2($t0)\n lw $v0, 0($t0)", 0x1234ffff},
		"blez taken":     {"li $t0, -3\n blez $t0, yes\n li $v0, 1\n break\n yes: li $v0, 2", 2},
		"blez zero":      {"blez $zero, yes\n li $v0, 1\n break\n yes: li $v0, 2", 2},
		"blez not taken": {"li $t0, 4\n blez $t0, yes\n li $v0, 1\n break\n yes: li $v0, 2", 1},
		"j":              {"j skip\n li $v0, 1\n break\n skip: li $v0, 2", 2},
		// jal reads the pc; jalr calls fn, linking the addu after it in
		// $t6, and fn returns there.
		"jalr": {"jal here\n here: addiu $t5, $ra, 16\n jalr $t6, $t5\n addu $v0, $v0, $t6\n break\n" +
			" fn: li $v0, 5\n jr $t6", int32(5 + binimg.DefaultTextBase + 12)},
	}
	for name, p := range progs {
		t.Run(name, func(t *testing.T) {
			words, err := mips.AssembleWords(p.src+"\n break", binimg.DefaultTextBase)
			if err != nil {
				t.Fatal(err)
			}
			img := &binimg.Image{Entry: binimg.DefaultTextBase, TextBase: binimg.DefaultTextBase, Text: words}
			cfg := sim.DefaultConfig()
			cfg.Profile = true
			fast, err := sim.Execute(img, cfg)
			if err != nil {
				t.Fatalf("threaded: %v", err)
			}
			ref, err := sim.ExecuteReference(img, cfg)
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			if !reflect.DeepEqual(fast, ref) {
				t.Errorf("threaded %+v, reference %+v", fast, ref)
			}
			if ref.ExitCode != p.want {
				t.Errorf("exit code %d (%#x), want %d (%#x)", ref.ExitCode, uint32(ref.ExitCode), p.want, uint32(p.want))
			}
		})
	}
}

// TestSimFaultsMatchReference runs programs whose memory access faults,
// below the first page, misaligned, or a store into the text, through
// both engines: each must fail with the same error (so at the same PC)
// and the same partial Result.
func TestSimFaultsMatchReference(t *testing.T) {
	const data, text = "lui $t0, 0x1000\n", "lui $t0, 0x40\n"
	for name, src := range map[string]string{
		"lb low":         "li $t0, 16\n lb $v0, 0($t0)",
		"lbu low":        "lbu $v0, 4($zero)",
		"lh low":         "lh $v0, 4($zero)",
		"lh misaligned":  data + "lh $v0, 1($t0)",
		"lhu misaligned": data + "lhu $v0, 3($t0)",
		"lw misaligned":  data + "lw $v0, 2($t0)",
		"sb low":         "sb $t0, 8($zero)",
		"sb into text":   text + "sb $t0, 0($t0)",
		"sh misaligned":  data + "sh $t0, 1($t0)",
		"sh into text":   text + "sh $t0, 2($t0)",
		"sw into text":   text + "sw $t0, 4($t0)",
	} {
		t.Run(name, func(t *testing.T) {
			words, err := mips.AssembleWords("li $v0, 1\n "+src+"\n break", binimg.DefaultTextBase)
			if err != nil {
				t.Fatal(err)
			}
			img := &binimg.Image{Entry: binimg.DefaultTextBase, TextBase: binimg.DefaultTextBase, Text: words}
			cfg := sim.DefaultConfig()
			cfg.Profile = true
			fast, ferr := sim.Execute(img, cfg)
			ref, rerr := sim.ExecuteReference(img, cfg)
			if ferr == nil || rerr == nil {
				t.Fatalf("want both engines to fault: threaded %v, reference %v", ferr, rerr)
			}
			if ferr.Error() != rerr.Error() {
				t.Errorf("threaded %q, reference %q", ferr, rerr)
			}
			if !reflect.DeepEqual(fast, ref) {
				t.Errorf("threaded %+v, reference %+v", fast, ref)
			}
		})
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
