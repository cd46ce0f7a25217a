package core

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
	"time"

	"binpart/internal/bench"
	"binpart/internal/fpga"
	"binpart/internal/platform"
)

// renderReportFmt is the fmt-based renderer AppendReport replaced, kept
// as the byte-identity oracle for it.
func renderReportFmt(rep *Report, structure bool) string {
	var b strings.Builder
	opts := rep.Options
	fmt.Fprintf(&b, "platform: %s\n", opts.Platform.Name())
	fmt.Fprintf(&b, "software-only: %d cycles (%.3f ms), exit code %d\n",
		rep.SWCycles, rep.Metrics.SWTimeS*1e3, rep.ExitCode)
	fmt.Fprintf(&b, "recovery: %d functions, %d failed", rep.Recovery.FuncsRecovered, rep.Recovery.FuncsFailed)
	for _, name := range fmtKeys(rep.Recovery.FailReasons) {
		fmt.Fprintf(&b, "\n  %s: %s", name, rep.Recovery.FailReasons[name])
	}
	fmt.Fprintln(&b)
	fmt.Fprintf(&b, "decompiler: %d loops rerolled, %d multiplies promoted, %d stack slots promoted, %d operators narrowed\n",
		rep.Recovery.RerolledLoops, rep.Recovery.PromotedMultiplies,
		rep.Recovery.StackSlotsPromoted, rep.Recovery.OpsNarrowed)

	if structure {
		fmt.Fprintf(&b, "\nrecovered structure:\n")
		outlines := rep.Outlines()
		for _, name := range fmtKeys(outlines) {
			fmt.Fprintln(&b, outlines[name])
		}
	}

	fmt.Fprintf(&b, "\ncandidate regions:\n")
	for _, r := range rep.Regions {
		mark := " "
		if r.Selected {
			mark = fmt.Sprintf("*%d", r.Step)
		}
		fmt.Fprintf(&b, "  %-2s %-32s sw=%-9d hw=%-9.0f clk=%.1fns area=%-7d mem=%v\n",
			mark, r.Name, r.SWCycles, r.HWCycles, r.HWClockNs, r.AreaGates, r.Footprint)
	}

	m := rep.Metrics
	fmt.Fprintf(&b, "\npartition (%s, %v):\n", opts.Algorithm, rep.PartitionTime)
	fmt.Fprintf(&b, "  application speedup: %.2fx\n", m.AppSpeedup)
	fmt.Fprintf(&b, "  kernel speedup:      %.2fx\n", m.KernelSpeedup)
	fmt.Fprintf(&b, "  energy savings:      %.1f%%\n", 100*m.EnergySavings)
	fmt.Fprintf(&b, "  area:                %d equivalent gates\n", m.AreaGates)
	return b.String()
}

func fmtKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// checkRender requires RenderReport and AppendReport onto a non-empty
// prefix to match the fmt oracle byte for byte, structure on and off.
func checkRender(t *testing.T, label string, rep *Report) {
	t.Helper()
	for _, structure := range []bool{false, true} {
		want := renderReportFmt(rep, structure)
		if got := RenderReport(rep, structure); got != want {
			t.Fatalf("%s structure=%v: renderers differ:\n--- AppendReport ---\n%s\n--- fmt ---\n%s", label, structure, got, want)
		}
		if got := string(AppendReport([]byte("prefix"), rep, structure)); got != "prefix"+want {
			t.Fatalf("%s structure=%v: AppendReport does not append to dst", label, structure)
		}
	}
}

// TestAppendReportMatchesFmt renders every report the suite can produce
// on the Virtex-II catalog — 20 benchmarks × O0–O3 × three partitioners
// × eleven devices × three CPU clocks × structure on/off, 15,840 texts —
// through AppendReport and through the fmt oracle, and requires
// byte-identity.
func TestAppendReportMatchesFmt(t *testing.T) {
	caches := NewCaches()
	n := 0
	for _, b := range bench.All() {
		for lvl := 0; lvl <= 3; lvl++ {
			img, err := Compile(b, lvl, caches, nil)
			if err != nil {
				t.Fatal(err)
			}
			a, err := AnalyzeWith(img, DefaultOptions(), caches)
			if err != nil {
				t.Fatal(err)
			}
			for _, alg := range []Algorithm{AlgNinetyTen, AlgGreedy, AlgGCLP} {
				for _, dev := range fpga.Catalog {
					for _, mhz := range []float64{40, 200, 433.3} {
						rep := Evaluate(a, platform.MIPS(mhz, dev), 0, alg)
						checkRender(t, fmt.Sprintf("%s -O%d %s %s %gMHz", b.Name, lvl, alg, dev.Name, mhz), rep)
						n += 2
					}
				}
			}
		}
	}
	if n != 15840 {
		t.Errorf("compared %d reports, want 15840", n)
	}
}

// TestAppendReportEdgeCases covers what the suite never produces: a
// region name of 32 runes and more with multi-byte characters (padding
// counts runes, as fmt does), several fail reasons and outlines,
// non-finite and negative floats, and multi-digit step marks.
func TestAppendReportEdgeCases(t *testing.T) {
	region := func(r platform.Region, fp []string) *RegionCandidate {
		return &RegionCandidate{Region: r, Footprint: fp}
	}
	rep := &Report{
		Analysis: &Analysis{
			ExitCode: -3,
			SWCycles: math.MaxUint64,
			Recovery: RecoveryStats{
				FuncsRecovered: 7, FuncsFailed: 2,
				FailReasons: map[string]string{"zeta": "indirect jump", "alpha": "décompilé: ☃"},
			},
			outlines: map[string]string{"b": "loop b\n", "a": "loop a"},
		},
		Options: Options{Platform: platform.MIPS(200, fpga.Catalog[0]), Algorithm: AlgGCLP},
		Regions: []*RegionReport{
			{region(platform.Region{Name: "ünïcödé_loop_ßßßßßßßßßßßßßßßßßßßß", SWCycles: 5, HWCycles: 2.5, HWClockNs: 9.95, AreaGates: 12345678},
				[]string{"a", "β"}), true, 12},
			{region(platform.Region{Name: strings.Repeat("名", 31), HWCycles: math.Inf(1), HWClockNs: math.NaN(), AreaGates: -1}, nil), false, 0},
			{region(platform.Region{Name: strings.Repeat("é", 40), HWCycles: -0.4, HWClockNs: math.Inf(-1)}, []string{}), false, 0},
			{region(platform.Region{Name: "", SWCycles: 123456789012, HWCycles: 1e21}, nil), true, 3},
		},
		Metrics:       platform.Metrics{SWTimeS: 1.23456e-4, AppSpeedup: math.NaN(), KernelSpeedup: math.Inf(1), EnergySavings: -0.0005, AreaGates: 0},
		PartitionTime: 1234567 * time.Nanosecond,
	}
	checkRender(t, "synthetic", rep)
	rep.PartitionTime = 0
	rep.Recovery.FailReasons = nil
	rep.outlines = nil
	checkRender(t, "synthetic, empty maps", rep)

	keys := map[string]string{}
	for i := 0; i < 40; i++ {
		keys[fmt.Sprintf("f%02d", 39-i)] = "reason"
	}
	rep.Recovery.FailReasons, rep.outlines = keys, keys
	checkRender(t, "synthetic, maps past the stack key buffer", rep)
}
