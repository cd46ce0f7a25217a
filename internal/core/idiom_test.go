package core

import (
	"fmt"
	"reflect"
	"slices"
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

// renamed returns a copy of img whose text symbols are all named f: a
// symbol table that names nothing apart, as an upload's may. The copy is
// built field by field, so it gets a fresh content key.
func renamed(img *binimg.Image) *binimg.Image {
	syms := slices.Clone(img.Symbols)
	for i := range syms {
		if img.InText(syms[i].Addr) {
			syms[i].Name = "f"
		}
	}
	return &binimg.Image{Entry: img.Entry, TextBase: img.TextBase, Text: img.Text,
		DataBase: img.DataBase, Data: img.Data, Symbols: syms}
}

// TestDuplicateFunctionNames checks that symbol names identify nothing
// between lifting and partitioning: for every suite binary, at loop and
// at function granularity, naming every function f must leave the run
// as it was — no panic, the same exit code and software cycles, the same
// candidates with the same cycles, gates, footprints and steps, and the
// same metrics. Only the region names, which quote the symbols, differ.
func TestDuplicateFunctionNames(t *testing.T) {
	type region struct {
		SWCycles    uint64
		HWCycles    float64
		Invocations uint64
		AreaGates   int
		Footprint   []string
		Step        int
	}
	summary := func(rep *Report) (out []region) {
		for _, r := range rep.Regions {
			out = append(out, region{r.SWCycles, r.HWCycles, r.Invocations, r.AreaGates, r.Footprint, r.Step})
		}
		return out
	}
	run := func(img *binimg.Image, opts Options) (rep *Report, err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("panic: %v", p)
			}
		}()
		return Run(img, opts)
	}
	for _, gran := range []Granularity{GranLoops, GranFunctions} {
		opts := DefaultOptions()
		opts.Granularity = gran
		for _, bm := range bench.All() {
			for lvl := 0; lvl <= 3; lvl++ {
				img, err := bm.Compile(lvl)
				if err != nil {
					t.Fatal(err)
				}
				want, err := Run(img, opts)
				if err != nil {
					t.Fatal(err)
				}
				got, err := run(renamed(img), opts)
				if err != nil {
					t.Errorf("%s -O%d gran %d renamed: %v", bm.Name, lvl, gran, err)
					continue
				}
				if got.ExitCode != want.ExitCode || got.SWCycles != want.SWCycles {
					t.Errorf("%s -O%d gran %d: renamed binary exits %d after %d cycles, the original %d after %d",
						bm.Name, lvl, gran, got.ExitCode, got.SWCycles, want.ExitCode, want.SWCycles)
				}
				if !reflect.DeepEqual(summary(got), summary(want)) || got.Metrics != want.Metrics {
					t.Errorf("%s -O%d gran %d: renamed binary partitions differently:\n got %+v %+v\nwant %+v %+v",
						bm.Name, lvl, gran, summary(got), got.Metrics, summary(want), want.Metrics)
				}
			}
		}
	}
}
