package core

import (
	"errors"
	"fmt"

	"binpart/internal/fpga"
	"binpart/internal/platform"
)

// Request is a user's platform and partitioning choices, the one model
// behind bparts' flags and bpartd's JSON body. Each JSON name is also the
// name of the flag that sets the field, where there is one, and Options'
// errors start with it. A nil or empty field keeps the base options'
// value.
type Request struct {
	MHz             *float64 `json:"mhz,omitempty"`
	Device          string   `json:"device,omitempty"`
	Alg             string   `json:"alg,omitempty"`
	AreaBudgetGates *int     `json:"area_budget_gates,omitempty"`
	Whole           bool     `json:"whole,omitempty"`
	JumpTables      *bool    `json:"jumptables,omitempty"`

	// Sweep is "" for one priced partition, or "devices" or "clocks"
	// for a Sweep over Clocks.
	Sweep  string    `json:"sweep,omitempty"`
	Clocks []float64 `json:"clocks,omitempty"`
}

// DefaultClocks is the CPU clocks a clocks sweep prices when the request
// names none.
var DefaultClocks = []float64{40, 100, 200, 400}

// Options checks every field of r and applies it to base. A rejected
// field's error reads "field: reason".
func (r *Request) Options(base Options) (Options, error) {
	opts := base
	var err error
	bad := func(field string, cause error) (Options, error) {
		return Options{}, fmt.Errorf("%s: %w", field, cause)
	}
	if r.MHz != nil || r.Device != "" {
		mhz, dev := opts.Platform.CPUMHz, opts.Platform.Device
		if r.MHz != nil {
			if err = platform.CheckMHz(*r.MHz); err != nil {
				return bad("mhz", err)
			}
			mhz = *r.MHz
		}
		if r.Device != "" {
			if dev, err = fpga.ByName(r.Device); err != nil {
				return bad("device", err)
			}
		}
		opts.Platform = platform.MIPS(mhz, dev)
	}
	if r.Alg != "" {
		if opts.Algorithm, err = ParseAlgorithm(r.Alg); err != nil {
			return bad("alg", err)
		}
	}
	if b := r.AreaBudgetGates; b != nil {
		if *b < 0 {
			return bad("area_budget_gates", fmt.Errorf("%d is negative", *b))
		}
		if r.Sweep != "" {
			return bad("area_budget_gates", errors.New("does not apply to a sweep: every point is priced at its device's full capacity"))
		}
		opts.AreaBudgetGates = *b
	}
	if r.Whole {
		opts.Granularity = GranFunctions
	}
	if r.JumpTables != nil {
		opts.RecoverJumpTables = *r.JumpTables
	}
	if r.Sweep != "" && r.Sweep != "devices" && r.Sweep != "clocks" {
		return bad("sweep", fmt.Errorf("unknown mode %q (want devices or clocks)", r.Sweep))
	}
	for _, mhz := range r.Clocks {
		if err = platform.CheckMHz(mhz); err != nil {
			return bad("clocks", err)
		}
	}
	return opts, nil
}
