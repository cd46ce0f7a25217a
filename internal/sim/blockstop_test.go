package sim

import (
	"fmt"
	"testing"
)

// This file pins the threaded engine's early-stop semantics: when a
// fault or the step limit lands *inside* a translated block, whose steps
// and cycles were charged up front, the engine must report exactly what
// the per-instruction reference stepper reports — same error text (and
// therefore the same PC), same retired step count, same cycle total.
// The block's charge has to be unwound to the stopping instruction,
// never rounded to the block boundary. The cases place the stop on
// either half of adjacent instruction pairs (ALU+load, load+ALU,
// compare+branch, ...); the Fused prefix of their names refers to those
// pair shapes.

// engineCases runs src on the threaded engine and the reference stepper
// under cfg and requires bit-identical outcomes, errors included.
func engineCases(t *testing.T, src string, cfg Config) {
	t.Helper()
	img := asmImage(t, src)
	ref, refErr := ExecuteReference(img, cfg)
	got, err := Execute(img, cfg)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("err %v, reference err %v", err, refErr)
	}
	if err != nil && err.Error() != refErr.Error() {
		t.Errorf("err %q, reference %q", err, refErr)
	}
	if got.Steps != ref.Steps || got.Cycles != ref.Cycles || got.ExitCode != ref.ExitCode {
		t.Errorf("steps=%d cycles=%d exit=%d, reference steps=%d cycles=%d exit=%d",
			got.Steps, got.Cycles, got.ExitCode, ref.Steps, ref.Cycles, ref.ExitCode)
	}
	if (got.Profile == nil) != (ref.Profile == nil) {
		t.Errorf("profile presence %v, reference %v", got.Profile != nil, ref.Profile != nil)
	}
}

// TestFusedFaultPCs places faults on specific halves of adjacent pairs:
// the memory op after an ALU op, the memory op before an ALU op, a
// text-protected store inside a pair, and a branch off the end of text.
func TestFusedFaultPCs(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		// addiu+lw is the dominant dynamic pair; the lw (second half)
		// takes a misaligned address.
		{"alu+lw misaligned", `
			lui $t1, 0x1000
			addiu $t1, $t1, 2
			lw $v0, 0($t1)
			break
		`},
		// mult+mflo pair first so the fault lands deeper into the block,
		// after an instruction with a non-unit cycle cost.
		{"paired then alu+lw fault", `
			mult $t0, $t0
			mflo $t0
			lui $t1, 0x1000
			addiu $t1, $t1, 2
			lw $v0, 0($t1)
			break
		`},
		// Load-first pair: the lw (first half) faults before its ALU
		// partner executes.
		{"lw+alu null", `
			lw $t0, 0($zero)
			addu $v0, $t0, $t0
			break
		`},
		// Store into text inside an alu+sw pair.
		{"alu+sw text store", `
			lui $t1, 0x40
			addiu $t2, $zero, 7
			sw $t2, 0($t1)
			break
		`},
		// sw+alu pair where the store (first half) faults.
		{"sw+alu text store", `
			lui $t1, 0x40
			sw $t1, 0($t1)
			addiu $v0, $v0, 1
			break
		`},
		// Conditional branch after its compare, target outside text
		// (branch off the end).
		{"cmp+branch off end", `
			addiu $t0, $zero, 1
			slti $t1, $t0, 5
			bne $t1, $zero, off
			break
		`},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			src := c.src
			if c.name == "cmp+branch off end" {
				// Label past the end of text: branch to the word after
				// break.
				src = `
			addiu $t0, $zero, 1
			slti $t1, $t0, 5
			bne $t1, $zero, off
			break
		off:
		`
			}
			engineCases(t, src, DefaultConfig())
		})
	}
}

// TestFusedBadJRAfterFusedRun pins the threaded engine's indirect-jump
// fault contract after a straight-line run: the error names the jr's own
// PC and target (richer than the reference's bare "PC outside text", by
// design — see TestIndirectJumpTargetErrors), while the step and cycle
// accounting still matches the reference exactly (the jump's step and
// cycles are charged before the target check, as the reference does).
func TestFusedBadJRAfterFusedRun(t *testing.T) {
	src := `
		addiu $t0, $zero, 3
		addiu $t1, $t1, 5
		addu $t2, $t0, $t1
		jr $t2
		break
	`
	img := asmImage(t, src)
	ref, refErr := ExecuteReference(img, DefaultConfig())
	if refErr == nil {
		t.Fatal("reference did not fault")
	}
	got, err := Execute(img, DefaultConfig())
	if err == nil {
		t.Fatal("no error")
	}
	want := "sim: jr at 0x40000c: jump target 0x8 outside text"
	if err.Error() != want {
		t.Errorf("err %q, want %q", err, want)
	}
	if got.Steps != ref.Steps || got.Cycles != ref.Cycles {
		t.Errorf("steps=%d cycles=%d, reference steps=%d cycles=%d",
			got.Steps, got.Cycles, ref.Steps, ref.Cycles)
	}
}

// TestFusedStepLimitTruncation sweeps the step limit across a loop body
// built from adjacent ALU pairs, so the limit lands on every offset
// within the block — including its entry and its terminator — and the
// truncated steps, cycles, and error text must match the reference
// stepper at every limit.
func TestFusedStepLimitTruncation(t *testing.T) {
	src := `
		addiu $t1, $zero, 8
	loop:
		addiu $t2, $t2, 3
		addu $t3, $t2, $t1
		sll $t4, $t3, 1
		addiu $t1, $t1, -1
		bgtz $t1, loop
		break
	`
	for limit := uint64(1); limit <= 45; limit++ {
		limit := limit
		t.Run(fmt.Sprintf("limit-%d", limit), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.MaxSteps = limit
			engineCases(t, src, cfg)
		})
	}
}

// TestFusedStepLimitProfiled repeats the truncation sweep with
// profiling on: the partial instruction counts the threaded engine
// reconstructs from block overlays are not part of Result on error
// (Profile is nil on any error), but steps/cycles must still agree.
func TestFusedStepLimitProfiled(t *testing.T) {
	src := `
		addiu $t1, $zero, 6
	loop:
		addiu $t2, $t2, 1
		addu $t3, $t2, $t2
		addiu $t1, $t1, -1
		bgtz $t1, loop
		break
	`
	for _, limit := range []uint64{1, 3, 5, 11, 17, 23} {
		cfg := DefaultConfig()
		cfg.Profile = true
		cfg.MaxSteps = limit
		t.Run(fmt.Sprintf("limit-%d", limit), func(t *testing.T) {
			engineCases(t, src, cfg)
		})
	}
}
