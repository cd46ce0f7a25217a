// Quickstart: compile a small program, partition its binary onto the
// default MIPS/FPGA platform, and print what happened.
//
//	go run ./examples/quickstart
package main

import (
	_ "embed"
	"fmt"
	"log"

	"binpart/internal/core"
	"binpart/internal/mcc"
)

// The input to the partitioner is a BINARY — the compiler here is just a
// convenient way to make one. Any MIPS SBF image works, whatever produced
// it; that independence is the point of the approach. `make examples`
// also runs prog.mc through the command-line tools: mcc, mipsim, bparts.
//
//go:embed prog.mc
var program string

func main() {
	img, err := mcc.Compile(program, mcc.Options{OptLevel: 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compiled: %d instructions, %d bytes of data\n", len(img.Text), len(img.Data))

	rep, err := core.Run(img, core.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("software-only run: %d cycles, exit code %d\n", rep.SWCycles, rep.ExitCode)
	fmt.Printf("functions recovered: %d (failed: %d)\n",
		rep.Recovery.FuncsRecovered, rep.Recovery.FuncsFailed)
	for _, r := range rep.Regions {
		state := "software"
		if r.Selected {
			state = fmt.Sprintf("HARDWARE (step %d)", r.Step)
		}
		fmt.Printf("  region %-28s %8d sw cycles -> %s\n", r.Name, r.SWCycles, state)
	}
	m := rep.Metrics
	fmt.Printf("application speedup: %.2fx\n", m.AppSpeedup)
	fmt.Printf("kernel speedup:      %.2fx\n", m.KernelSpeedup)
	fmt.Printf("energy savings:      %.1f%%\n", 100*m.EnergySavings)
	fmt.Printf("FPGA area:           %d equivalent gates\n", m.AreaGates)
}
