// Package fpga models a Xilinx Virtex-II class FPGA: a device catalog and
// per-operator area/delay cost tables. It substitutes for the Xilinx ISE
// backend of the reproduced paper — ISE is used there only to obtain area
// and clock estimates for the generated RTL, which this model produces
// analytically from datasheet-order-of-magnitude constants.
//
// Area is tracked in slices (each Virtex-II slice holds two 4-input LUTs
// and two flip-flops), dedicated MULT18X18 blocks, and block RAMs. The
// conventional "equivalent logic gates" metric reported by the paper is
// derived at a fixed gates-per-slice factor.
package fpga

import "fmt"

// Device is one member of the Virtex-II family.
type Device struct {
	Name   string
	Slices int
	Mult18 int // dedicated 18x18 multiplier blocks
	BRAM   int // 18 Kbit block RAMs
}

// Catalog lists the Virtex-II family, smallest to largest (XC2V40 through
// XC2V8000), with datasheet resource counts.
var Catalog = []Device{
	{"XC2V40", 256, 4, 4},
	{"XC2V80", 512, 8, 8},
	{"XC2V250", 1536, 24, 24},
	{"XC2V500", 3072, 32, 32},
	{"XC2V1000", 5120, 40, 40},
	{"XC2V1500", 7680, 48, 48},
	{"XC2V2000", 10752, 56, 56},
	{"XC2V3000", 14336, 96, 96},
	{"XC2V4000", 23040, 120, 120},
	{"XC2V6000", 33792, 144, 144},
	{"XC2V8000", 46592, 168, 168},
}

// ByName returns the catalog device with the given name.
func ByName(name string) (Device, error) {
	for _, d := range Catalog {
		if d.Name == name {
			return d, nil
		}
	}
	return Device{}, fmt.Errorf("fpga: unknown device %q", name)
}

// Area is a resource usage vector.
type Area struct {
	Slices int
	Mult18 int
	BRAM   int
}

// Add accumulates another area vector.
func (a Area) Add(b Area) Area {
	return Area{a.Slices + b.Slices, a.Mult18 + b.Mult18, a.BRAM + b.BRAM}
}

// GatesPerSlice converts slices to the "equivalent logic gates" metric:
// two 4-input LUTs (~12 gates each) plus two flip-flops (~6 gates each).
const GatesPerSlice = 36

// GatesPerMult18 is the equivalent gate count of a dedicated multiplier.
const GatesPerMult18 = 2600

// GateEquivalent converts an area vector to equivalent logic gates.
// Block RAM is memory, not logic, and is conventionally excluded.
func (a Area) GateEquivalent() int {
	return a.Slices*GatesPerSlice + a.Mult18*GatesPerMult18
}

// OpClass classifies datapath operators for costing.
type OpClass int

const (
	ClassAdd     OpClass = iota // add, subtract, compare-producing adders
	ClassLogic                  // and/or/xor
	ClassShiftC                 // shift by constant (wiring only)
	ClassShiftV                 // barrel shifter
	ClassCompare                // relational comparison
	ClassMult                   // multiplication
	ClassDiv                    // division/remainder
	ClassReg                    // pipeline/architectural register
	ClassMux                    // 2:1 datapath multiplexer
	ClassMemPort                // block-RAM port interface logic
)

// Cost is the implementation cost of one operator instance.
type Cost struct {
	Area    Area
	DelayNs float64
}

// routingFactor inflates raw logic delays to account for interconnect;
// Virtex-II routing typically dominates at this ratio.
const routingFactor = 1.35

// ffSetupNs is clock-to-out plus setup overhead added to every register
// boundary when estimating the achievable clock.
const ffSetupNs = 1.2

// CostOf returns the cost of one operator of the given class at the given
// bit width (1..32). Widths below come from the decompiler's operator
// size reduction; narrower operators are cheaper and faster, which is the
// point of that pass.
func CostOf(class OpClass, width int) Cost {
	if width <= 0 || width > 32 {
		width = 32
	}
	w := float64(width)
	switch class {
	case ClassAdd:
		return Cost{Area{Slices: (width + 1) / 2}, (0.6 + 0.055*w) * routingFactor}
	case ClassLogic:
		return Cost{Area{Slices: (width + 1) / 2}, 0.45 * routingFactor}
	case ClassShiftC:
		return Cost{Area{}, 0.05} // routing only
	case ClassShiftV:
		levels := 5 // log2(32)
		return Cost{Area{Slices: width * levels / 4}, (0.4*float64(levels) + 0.3) * routingFactor}
	case ClassCompare:
		return Cost{Area{Slices: (width + 1) / 2}, (0.6 + 0.055*w) * routingFactor}
	case ClassMult:
		blocks := (width + 17) / 18
		return Cost{Area{Mult18: blocks * blocks}, (4.4 + 0.4*float64(blocks-1)) * routingFactor}
	case ClassDiv:
		// Combinational restoring array divider: quadratic area, long
		// delay; synthesis avoids these when strength reduction can.
		return Cost{Area{Slices: width * width / 3}, (1.1 * w) * routingFactor}
	case ClassReg:
		return Cost{Area{Slices: (width + 1) / 2}, 0}
	case ClassMux:
		return Cost{Area{Slices: (width + 1) / 2}, 0.35 * routingFactor}
	case ClassMemPort:
		return Cost{Area{Slices: 20, BRAM: 0}, 2.1 * routingFactor}
	}
	return Cost{Area{Slices: width}, 1.0}
}

// BRAMsFor returns the number of 18 Kbit block RAMs needed to hold a
// memory region of the given byte size (dual-ported, 32-bit lanes).
func BRAMsFor(bytes int) int {
	if bytes <= 0 {
		return 0
	}
	const bramBytes = 18 * 1024 / 8
	return (bytes + bramBytes - 1) / bramBytes
}

// ClockFromCriticalPath converts a worst-case combinational path delay to
// an achievable clock period, adding register overhead, and returns the
// period in nanoseconds.
func ClockFromCriticalPath(pathNs float64) float64 {
	return pathNs + ffSetupNs
}

// MHz converts a period in nanoseconds to a frequency in MHz.
func MHz(periodNs float64) float64 {
	if periodNs <= 0 {
		return 0
	}
	return 1000.0 / periodNs
}
