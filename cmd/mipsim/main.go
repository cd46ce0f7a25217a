// Command mipsim runs an SBF binary on the MIPS simulator, optionally
// printing an execution profile (the partitioner's input).
//
// Usage:
//
//	mipsim [-profile] [-top n] program.sbf
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"binpart/internal/binimg"
	"binpart/internal/sim"
)

func main() {
	profile := flag.Bool("profile", false, "collect and print an execution profile")
	top := flag.Int("top", 10, "number of hot addresses to print with -profile")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: mipsim [-profile] [-top n] program.sbf")
		os.Exit(2)
	}
	data, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	img, err := binimg.Unmarshal(data)
	if err != nil {
		fatal(err)
	}
	cfg := sim.DefaultConfig()
	cfg.Profile = *profile
	res, err := sim.Execute(img, cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("exit code: %d\n", res.ExitCode)
	fmt.Printf("instructions: %d\n", res.Steps)
	fmt.Printf("cycles: %d\n", res.Cycles)
	if res.Profile != nil {
		cycles := sim.AttributeCycles(img, res.Profile, nil)
		type hot struct {
			pc  uint32
			cyc uint64
		}
		var hots []hot
		for i, c := range cycles.Cycles {
			if c > 0 {
				hots = append(hots, hot{cycles.Base + uint32(4*i), c})
			}
		}
		sort.Slice(hots, func(i, j int) bool { return hots[i].cyc > hots[j].cyc })
		fmt.Printf("hottest addresses:\n")
		for i, h := range hots {
			if i >= *top {
				break
			}
			name := "?"
			if s, ok := img.SymbolAt(h.pc); ok {
				name = fmt.Sprintf("%s+0x%x", s.Name, h.pc-s.Addr)
			}
			fmt.Printf("  0x%08x %-24s %12d cycles (%.1f%%)\n",
				h.pc, name, h.cyc, 100*float64(h.cyc)/float64(res.Cycles))
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
