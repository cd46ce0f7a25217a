package core

import (
	"reflect"
	"testing"

	"binpart/internal/bench"
	"binpart/internal/binimg"
	"binpart/internal/mips"
)

// commuted returns a copy of img with the two source registers of every
// addu, and, or and xor swapped: the same program, spelled the way
// another compiler might. The copy is built field by field, so it gets a
// fresh content key.
func commuted(t *testing.T, img *binimg.Image) *binimg.Image {
	t.Helper()
	text := make([]uint32, len(img.Text))
	for i, w := range img.Text {
		text[i] = w
		in, err := mips.Decode(w)
		if err != nil {
			continue
		}
		switch in.Op {
		case mips.ADDU, mips.AND, mips.OR, mips.XOR:
			in.Rs, in.Rt = in.Rt, in.Rs
			if text[i], err = mips.Encode(in); err != nil {
				t.Fatalf("re-encode %#08x: %v", w, err)
			}
		}
	}
	return &binimg.Image{Entry: img.Entry, TextBase: img.TextBase, Text: text,
		DataBase: img.DataBase, Data: img.Data, Symbols: img.Symbols}
}

// TestCommutedOperandsAreInvisible checks the paper's claim that
// binary-level partitioning does not depend on the compiler's idioms: for
// every suite −O1 binary, swapping the operands of the commutative ALU
// instructions must leave the simulation and the analysis as they were —
// the same exit code and software cycles, and the same candidates with
// the same footprints, hardware cycles and gates, priced to the same
// metrics.
func TestCommutedOperandsAreInvisible(t *testing.T) {
	type region struct {
		Name      string
		Footprint []string
		HWCycles  float64
		AreaGates int
		Selected  bool
	}
	summary := func(rep *Report) (out []region) {
		for _, r := range rep.Regions {
			out = append(out, region{r.Name, r.Footprint, r.HWCycles, r.AreaGates, r.Selected})
		}
		return out
	}
	for _, bm := range bench.All() {
		img, err := bm.Compile(1)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Run(img, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run(commuted(t, img), DefaultOptions())
		if err != nil {
			t.Fatalf("%s commuted: %v", bm.Name, err)
		}
		if got.ExitCode != want.ExitCode || got.SWCycles != want.SWCycles {
			t.Errorf("%s: commuted binary exits %d after %d cycles, the original %d after %d",
				bm.Name, got.ExitCode, got.SWCycles, want.ExitCode, want.SWCycles)
		}
		if !reflect.DeepEqual(summary(got), summary(want)) || got.Metrics != want.Metrics {
			t.Errorf("%s: commuted binary prices differently:\n got %+v %+v\nwant %+v %+v",
				bm.Name, summary(got), got.Metrics, summary(want), want.Metrics)
		}
	}
}
