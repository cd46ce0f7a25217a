package sim

import (
	"testing"

	"binpart/internal/binimg"
	"binpart/internal/mips"
)

func TestAttributeCycles(t *testing.T) {
	src := `
		li   $t1, 4
		li   $v0, 0
	loop:
		addu $v0, $v0, $t1
		lw   $t2, 0($sp)
		addiu $t1, $t1, -1
		bgtz $t1, loop
		break
	`
	words, err := mips.AssembleWords(src, binimg.DefaultTextBase)
	if err != nil {
		t.Fatal(err)
	}
	img := &binimg.Image{
		Entry: binimg.DefaultTextBase, TextBase: binimg.DefaultTextBase,
		Text: words, DataBase: binimg.DefaultDataBase,
	}
	cfg := DefaultConfig()
	cfg.Profile = true
	res, err := Execute(img, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cyc := AttributeCycles(img, res.Profile, cfg.Cycles)

	base := img.TextBase
	// The loop body runs 4 times; the load at +12 costs Load cycles each.
	if got, want := cyc.At(base+12), 4*cfg.Cycles.Load; got != want {
		t.Errorf("load cycles = %d, want %d", got, want)
	}
	// The branch at +20: taken 3 times, not taken once.
	wantBr := 3*cfg.Cycles.BranchTaken + 1*cfg.Cycles.BranchNot
	if got := cyc.At(base + 20); got != wantBr {
		t.Errorf("branch cycles = %d, want %d", got, wantBr)
	}
	// Plain ALU op at +8 costs ALU each of its 4 executions.
	if got, want := cyc.At(base+8), 4*cfg.Cycles.ALU; got != want {
		t.Errorf("alu cycles = %d, want %d", got, want)
	}
	// Total attribution equals the run's cycle count.
	var sum uint64
	for _, c := range cyc.Cycles {
		sum += c
	}
	if sum != res.Cycles {
		t.Errorf("attributed %d cycles, run reported %d", sum, res.Cycles)
	}
}

func TestAttributeCyclesMultDiv(t *testing.T) {
	src := `
		li $t0, 6
		li $t1, 7
		mult $t0, $t1
		mflo $v0
		div $t0, $t1
		break
	`
	words, _ := mips.AssembleWords(src, binimg.DefaultTextBase)
	img := &binimg.Image{
		Entry: binimg.DefaultTextBase, TextBase: binimg.DefaultTextBase,
		Text: words, DataBase: binimg.DefaultDataBase,
	}
	cfg := DefaultConfig()
	cfg.Profile = true
	res, err := Execute(img, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cyc := AttributeCycles(img, res.Profile, cfg.Cycles)
	if got := cyc.At(img.TextBase + 8); got != cfg.Cycles.Mult {
		t.Errorf("mult cycles = %d, want %d", got, cfg.Cycles.Mult)
	}
	if got := cyc.At(img.TextBase + 16); got != cfg.Cycles.Div {
		t.Errorf("div cycles = %d, want %d", got, cfg.Cycles.Div)
	}
}
