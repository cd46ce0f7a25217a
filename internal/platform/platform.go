// Package platform models the paper's hypothetical single-chip
// microprocessor/FPGA platform: a MIPS core at a configurable clock next
// to a Virtex-II fabric, with a communication cost per accelerator
// invocation and an analytic power model. It turns partitioning results
// into the metrics the paper reports: application speedup, kernel
// speedup, and energy savings.
package platform

import (
	"fmt"
	"strconv"

	"binpart/internal/fpga"
)

// Platform describes one microprocessor/FPGA configuration: the two
// things the paper varies. Its power and bus model is fixed (the
// constants below).
type Platform struct {
	CPUMHz float64
	Device fpga.Device
}

// The platform's fixed power and bus model.
const (
	// cpuWattsPerMHz is the dynamic power density of the modeled MIPS
	// core: its power while executing is cpuWattsPerMHz × CPUMHz.
	cpuWattsPerMHz = 2.5e-3
	// cpuIdleFrac is the fraction of active power the core burns while
	// stalled waiting for the FPGA.
	cpuIdleFrac = 0.35
	// fpgaStaticW is the fabric's static power (drawn whenever the
	// design is configured).
	fpgaStaticW = 0.08
	// fpgaDynWPerGateMHz scales dynamic fabric power with active logic
	// and clock.
	fpgaDynWPerGateMHz = 9.0e-8
)

// CommCPUCycles is the per-invocation cost of starting the accelerator
// and exchanging arguments/results over the on-chip bus.
const CommCPUCycles = 60

// minMHz and maxMHz bound the CPU clocks the model prices. Outside them
// its times and energies stop meaning anything (a negative clock gives
// negative times), so every clock a user supplies is checked with
// CheckMHz before it reaches MIPS.
const (
	minMHz = 1
	maxMHz = 10_000
)

// CheckMHz rejects a CPU clock that is not a finite number of MHz in
// [minMHz, maxMHz].
func CheckMHz(mhz float64) error {
	if !(mhz >= minMHz && mhz <= maxMHz) { // false for NaN too
		return fmt.Errorf("CPU clock %g MHz out of range [%d, %d]", mhz, minMHz, maxMHz)
	}
	return nil
}

// MIPS returns a platform with the given CPU clock and device.
func MIPS(mhz float64, dev fpga.Device) Platform {
	return Platform{CPUMHz: mhz, Device: dev}
}

// Name is the platform's name, "MIPS-<clock, %.0f MHz>/<device>".
func (p Platform) Name() string { return string(p.AppendName(nil)) }

// AppendName appends p's Name to dst and returns the extended slice.
func (p Platform) AppendName(dst []byte) []byte {
	dst = append(dst, "MIPS-"...)
	dst = strconv.AppendFloat(dst, p.CPUMHz, 'f', 0, 64)
	dst = append(dst, '/')
	return append(dst, p.Device.Name...)
}

// cpuActiveW is the core's power while executing.
func (p Platform) cpuActiveW() float64 { return cpuWattsPerMHz * p.CPUMHz }

// defaultDevice is the fabric of the paper's evaluation platforms.
func defaultDevice() fpga.Device {
	d, _ := fpga.ByName("XC2V2000")
	return d
}

// MIPS200 is the platform of the paper's main results; its 40 and 400 MHz
// siblings are MIPS(40, MIPS200.Device) and MIPS(400, MIPS200.Device).
var MIPS200 = MIPS(200, defaultDevice())

// Region is one candidate region's platform-independent cost record;
// Times prices it for a platform.
type Region struct {
	Name string
	// SWCycles is the CPU cycles the region consumed in the all-software
	// run.
	SWCycles uint64
	// HWCycles is the accelerator cycles for all executions.
	HWCycles float64
	// HWClockNs is the synthesized design's clock period.
	HWClockNs float64
	// Invocations is how many times the CPU starts the accelerator.
	Invocations uint64
	// AreaGates is the design's equivalent-gate area, all of it active.
	AreaGates int
}

// HWSeconds is the region's total hardware execution time.
func (r Region) HWSeconds() float64 { return r.HWCycles * r.HWClockNs * 1e-9 }

// Times prices region r on this platform: sw is the seconds the CPU
// spends in it, hw the accelerator's seconds plus the CPU's cost of
// starting it on every invocation. It is the one pricing formula; the
// partitioner and Evaluate both read it.
func (p Platform) Times(r Region) (sw, hw float64) {
	cpuHz := p.CPUMHz * 1e6
	return float64(r.SWCycles) / cpuHz, r.HWSeconds() + float64(r.Invocations*CommCPUCycles)/cpuHz
}

// Metrics aggregates a partitioned application's evaluation.
type Metrics struct {
	SWTimeS       float64
	HWSWTimeS     float64
	AppSpeedup    float64
	KernelSpeedup float64
	EnergySWJ     float64
	EnergyHWSWJ   float64
	// EnergySavings is 1 - EnergyHWSW/EnergySW (the paper's "%" metric).
	EnergySavings float64
	AreaGates     int
}

// Evaluate computes the metrics for an application whose all-software run
// took totalSWCycles on this platform's CPU, with the given regions moved
// to hardware.
func (p Platform) Evaluate(totalSWCycles uint64, regions []Region) Metrics {
	swTime := float64(totalSWCycles) / (p.CPUMHz * 1e6)

	var kernelSW, kernelHW float64
	var area int
	var fpgaDynE float64
	for _, r := range regions {
		sw, hw := p.Times(r)
		kernelSW += sw
		kernelHW += hw
		area += r.AreaGates
		mhz := fpga.MHz(r.HWClockNs)
		fpgaDynE += fpgaDynWPerGateMHz * float64(r.AreaGates) * mhz * r.HWSeconds()
	}
	hwswTime := swTime - kernelSW + kernelHW

	m := Metrics{
		SWTimeS:   swTime,
		HWSWTimeS: hwswTime,
		AreaGates: area,
	}
	if hwswTime > 0 {
		m.AppSpeedup = swTime / hwswTime
	}
	if kernelHW > 0 {
		m.KernelSpeedup = kernelSW / kernelHW
	}

	// Energy. Software-only: CPU active the whole run. Partitioned: CPU
	// active for the software residue, idling while the FPGA runs. The
	// fabric is power-gated when inactive (the standard assumption for
	// this platform class), so both its static and dynamic power apply
	// only during hardware execution.
	activeW := p.cpuActiveW()
	m.EnergySWJ = activeW * swTime
	cpuE := activeW*(swTime-kernelSW) + activeW*cpuIdleFrac*kernelHW
	fpgaE := fpgaStaticW*kernelHW + fpgaDynE
	m.EnergyHWSWJ = cpuE + fpgaE
	if m.EnergySWJ > 0 {
		m.EnergySavings = 1 - m.EnergyHWSWJ/m.EnergySWJ
	}
	return m
}
