// CRC accelerator walkthrough: watch the decompiler work on a real
// binary, then inspect the synthesized accelerator and its VHDL.
//
//	go run ./examples/crcaccel
package main

import (
	"fmt"
	"log"
	"strings"

	"binpart/internal/bench"
	"binpart/internal/decompile"
	"binpart/internal/dopt"
	"binpart/internal/ir"
	"binpart/internal/synth"
	"binpart/internal/vhdl"
)

func main() {
	b, _ := bench.ByName("crc")
	img, err := b.Compile(2)
	if err != nil {
		log.Fatal(err)
	}

	// Stage 1: binary parsing + CDFG creation.
	res, err := decompile.Decompile(img)
	if err != nil {
		log.Fatal(err)
	}
	f := res.Func("crc_kernel")
	fmt.Printf("== raw lifted CDFG: %d blocks, %d instructions\n",
		len(f.Blocks), f.NumInstrs())

	// Stage 2: decompiler optimizations.
	rep := dopt.Optimize(f)
	fmt.Printf("== after decompiler optimizations: %d instructions\n", f.NumInstrs())
	fmt.Printf("   stack slots promoted: %d, operators narrowed: %d (saving %d bits of datapath)\n",
		rep.Stack.SlotsPromoted, rep.Width.OpsNarrowed, rep.Width.BitsSaved)

	// Stage 3: control structure recovery.
	st := ir.Recover(f)
	for _, l := range st.Loops {
		trip := "unknown trip count"
		for _, iv := range l.Loop.IndVars {
			if n, ok := iv.TripCount(); ok {
				trip = fmt.Sprintf("trip count %d", n)
			}
		}
		fmt.Printf("   recovered %s loop at 0x%x (%s)\n", l.Shape, l.Loop.Header.Start, trip)
	}

	// Stage 4: behavioral synthesis of the hot loop.
	loops := ir.FindLoops(f)
	var hot *ir.Loop
	for _, l := range loops {
		if hot == nil || l.NumInstrs() > hot.NumInstrs() {
			hot = l
		}
	}
	design, err := synth.Synthesize(synth.LoopRegion(f, hot), img, synth.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("== synthesized %s\n", design.Name)
	fmt.Printf("   clock %.2f ns (%.0f MHz), %d slices, %d multipliers, %d BRAMs (%d equivalent gates)\n",
		design.ClockNs, design.ClockMHz(), design.Area.Slices,
		design.Area.Mult18, design.Area.BRAM, design.GateEquivalent())
	for _, s := range design.Schedule {
		if s.II > 0 {
			fmt.Printf("   pipelined body block %d: II=%d, depth=%d\n", s.Block.Index, s.II, s.States)
		}
	}
	for _, m := range design.MemObjects {
		fmt.Printf("   array %q (%d bytes) moved into block RAM\n", m.Sym, m.Bytes)
	}

	// Stage 5: VHDL.
	text, err := vhdl.Emit(design)
	if err != nil {
		log.Fatal(err)
	}
	if err := vhdl.Check(text); err != nil {
		log.Fatalf("generated VHDL failed to parse: %v", err)
	}
	lines := strings.Split(text, "\n")
	fmt.Printf("== VHDL (%d lines, parsed and checked); first 20:\n", len(lines))
	for i := 0; i < 20 && i < len(lines); i++ {
		fmt.Printf("   %s\n", lines[i])
	}
}
