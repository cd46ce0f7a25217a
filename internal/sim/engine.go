package sim

import "fmt"

// Engine selects the execution engine behind Execute. Both engines are
// bit-identical — same Steps, Cycles, ExitCode, error conditions, and
// Profile maps — and the differential suite (simdiff_test.go plus the
// progen engine differentials) holds them to that; they differ only in
// throughput.
type Engine uint8

const (
	// EngineThreaded is the default (zero value): each basic block is
	// translated once, on first execution, into a flat run of
	// tag-dispatched superops whose steps and cycles are charged per
	// block rather than per instruction.
	EngineThreaded Engine = iota
	// EngineReference is the preserved original per-instruction stepper
	// (ExecuteReference): the semantic oracle, deliberately unoptimized.
	EngineReference
)

// String returns the engine's name.
func (e Engine) String() string {
	switch e {
	case EngineThreaded:
		return "threaded"
	case EngineReference:
		return "reference"
	}
	return fmt.Sprintf("engine(%d)", uint8(e))
}

// ParseEngine parses an engine name. "fused" is accepted as a spelling
// of the default, for callers written against the retired
// superinstruction engine.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "threaded", "fused", "":
		return EngineThreaded, nil
	case "reference":
		return EngineReference, nil
	}
	return 0, fmt.Errorf("sim: unknown engine %q (want threaded or reference)", s)
}
