package core

import (
	"fmt"
	"slices"
	"strconv"
	"unicode/utf8"

	"binpart/internal/fpga"
	"binpart/internal/obs"
	"binpart/internal/platform"
)

// RenderReport renders a partition report in the canonical text form
// shared by the bparts CLI and the bpartd daemon — the two surfaces must
// stay byte-identical for the same inputs, which is why the rendering
// lives here rather than in either command. With structure set, the
// recovered control-structure outlines are included.
func RenderReport(rep *Report, structure bool) string {
	return string(AppendReport(nil, rep, structure))
}

// AppendReport appends RenderReport's text to dst and returns the
// extended slice. It formats with appends instead of fmt, so a caller
// that reuses dst renders without allocating; the layout is the one a
// fmt.Fprintf renderer would print (fields left-justified and
// space-padded to a width counted in runes, floats in %.Nf form).
func AppendReport(dst []byte, rep *Report, structure bool) []byte {
	opts := rep.Options
	m := rep.Metrics
	dst = append(dst, "platform: "...)
	dst = append(dst, opts.Platform.Name...)
	dst = append(dst, "\nsoftware-only: "...)
	dst = strconv.AppendUint(dst, rep.SWCycles, 10)
	dst = append(dst, " cycles ("...)
	dst = strconv.AppendFloat(dst, m.SWTimeS*1e3, 'f', 3, 64)
	dst = append(dst, " ms), exit code "...)
	dst = strconv.AppendInt(dst, int64(rep.ExitCode), 10)
	dst = append(dst, "\nrecovery: "...)
	dst = strconv.AppendInt(dst, int64(rep.Recovery.FuncsRecovered), 10)
	dst = append(dst, " functions, "...)
	dst = strconv.AppendInt(dst, int64(rep.Recovery.FuncsFailed), 10)
	dst = append(dst, " failed"...)
	var keyBuf [16]string
	for _, name := range sortedKeys(keyBuf[:0], rep.Recovery.FailReasons) {
		dst = append(dst, "\n  "...)
		dst = append(dst, name...)
		dst = append(dst, ": "...)
		dst = append(dst, rep.Recovery.FailReasons[name]...)
	}
	dst = append(dst, "\ndecompiler: "...)
	dst = strconv.AppendInt(dst, int64(rep.Recovery.RerolledLoops), 10)
	dst = append(dst, " loops rerolled, "...)
	dst = strconv.AppendInt(dst, int64(rep.Recovery.PromotedMultiplies), 10)
	dst = append(dst, " multiplies promoted, "...)
	dst = strconv.AppendInt(dst, int64(rep.Recovery.StackSlotsPromoted), 10)
	dst = append(dst, " stack slots promoted, "...)
	dst = strconv.AppendInt(dst, int64(rep.Recovery.OpsNarrowed), 10)
	dst = append(dst, " operators narrowed\n"...)

	if structure {
		dst = append(dst, "\nrecovered structure:\n"...)
		for _, name := range sortedKeys(keyBuf[:0], rep.Outlines) {
			dst = append(dst, rep.Outlines[name]...)
			dst = append(dst, '\n')
		}
	}

	dst = append(dst, "\ncandidate regions:\n"...)
	for _, r := range rep.Regions {
		dst = append(dst, "  "...)
		col := len(dst)
		if r.Selected {
			dst = append(dst, '*')
			dst = strconv.AppendInt(dst, int64(r.Step), 10)
		} else {
			dst = append(dst, ' ')
		}
		dst = padTo(dst, col, 2)
		dst = append(dst, ' ')
		col = len(dst)
		dst = append(dst, r.Name...)
		dst = padTo(dst, col, 32)
		dst = append(dst, " sw="...)
		col = len(dst)
		dst = strconv.AppendUint(dst, r.SWCycles, 10)
		dst = padTo(dst, col, 9)
		dst = append(dst, " hw="...)
		col = len(dst)
		dst = strconv.AppendFloat(dst, r.HWCycles, 'f', 0, 64)
		dst = padTo(dst, col, 9)
		dst = append(dst, " clk="...)
		dst = strconv.AppendFloat(dst, r.HWClockNs, 'f', 1, 64)
		dst = append(dst, "ns area="...)
		col = len(dst)
		dst = strconv.AppendInt(dst, int64(r.AreaGates), 10)
		dst = padTo(dst, col, 7)
		dst = append(dst, " mem=["...)
		for i, s := range r.Footprint {
			if i > 0 {
				dst = append(dst, ' ')
			}
			dst = append(dst, s...)
		}
		dst = append(dst, "]\n"...)
	}

	dst = append(dst, "\npartition ("...)
	dst = append(dst, opts.Algorithm.String()...)
	dst = append(dst, ", "...)
	dst = append(dst, rep.PartitionTime.String()...)
	dst = append(dst, "):\n  application speedup: "...)
	dst = strconv.AppendFloat(dst, m.AppSpeedup, 'f', 2, 64)
	dst = append(dst, "x\n  kernel speedup:      "...)
	dst = strconv.AppendFloat(dst, m.KernelSpeedup, 'f', 2, 64)
	dst = append(dst, "x\n  energy savings:      "...)
	dst = strconv.AppendFloat(dst, 100*m.EnergySavings, 'f', 1, 64)
	dst = append(dst, "%\n  area:                "...)
	dst = strconv.AppendInt(dst, int64(m.AreaGates), 10)
	dst = append(dst, " equivalent gates\n"...)
	return dst
}

// padTo left-justifies the field dst[col:] in width runes, padding with
// spaces as fmt's %-Ns does.
func padTo(dst []byte, col, width int) []byte {
	for n := utf8.RuneCount(dst[col:]); n < width; n++ {
		dst = append(dst, ' ')
	}
	return dst
}

// SweepPoint is one priced point of a sweep: its row label, the rendered
// row, and the report it came from.
type SweepPoint struct {
	Label string
	Text  string
	Rep   *Report
}

// Sweep prices the analysis at every point of a sweep and renders the
// sweep's header line and one row per point. Mode "clocks" prices each of
// clocks (DefaultClocks when empty) on opts' device; any other mode
// prices each Virtex-II device at opts' clock.
func Sweep(a *Analysis, opts Options, mode string, clocks []float64, sc *obs.Scope) (header string, pts []SweepPoint) {
	price := func(label string, p platform.Platform) {
		rep := EvaluateScoped(a, p, 0, opts.Algorithm, sc)
		m := rep.Metrics
		text := fmt.Sprintf("  %-10s speedup %6.2fx  kernel %6.2fx  energy %5.1f%%  area %7d gates  selected %d\n",
			label, m.AppSpeedup, m.KernelSpeedup, 100*m.EnergySavings, m.AreaGates, len(rep.SelectedRegions()))
		pts = append(pts, SweepPoint{Label: label, Text: text, Rep: rep})
	}
	if mode == "clocks" {
		if len(clocks) == 0 {
			clocks = DefaultClocks
		}
		for _, mhz := range clocks {
			price(fmt.Sprintf("%.0fMHz", mhz), platform.MIPS(mhz, opts.Platform.Device))
		}
		return fmt.Sprintf("clock sweep (%s, %s):\n", opts.Algorithm, opts.Platform.Device.Name), pts
	}
	for _, dev := range fpga.Catalog {
		price(dev.Name, platform.MIPS(opts.Platform.CPUMHz, dev))
	}
	return fmt.Sprintf("area sweep (%s @ %.0f MHz, Virtex-II catalog):\n", opts.Algorithm, opts.Platform.CPUMHz), pts
}

// sortedKeys appends m's keys to keys in sorted order, for deterministic
// rendering. A caller passing a stack array's empty slice sorts a small
// map without allocating.
func sortedKeys[V any](keys []string, m map[string]V) []string {
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
