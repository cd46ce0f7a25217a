package exper

import "fmt"

// Experiment is one table, figure, ablation or extension of the paper's
// evaluation, rendered as text. Runner.Regenerate runs a list of them.
type Experiment struct {
	Kind string // "table", "figure", "ablation" or "extension"
	Num  int    // its number within the kind, from 1
	plan func() plan[string]
}

// Name is how reports refer to e, e.g. "table 1".
func (e Experiment) Name() string { return fmt.Sprintf("%s %d", e.Kind, e.Num) }

// Experiments lists, in output order, everything one default regeneration
// runs: the experiments CLI with no selection flags and the
// StageRegenerate benchmark both pass this list to Runner.Regenerate.
var Experiments = []Experiment{
	{"table", 1, formatted(table1)},
	{"table", 2, formatted(table2)},
	{"table", 3, formatted(table3)},
	{"table", 4, formatted(table4)},
	{"figure", 1, formatted(figure1)},
	{"ablation", 1, formatted(partitionerComparison)},
	{"ablation", 2, formatted(passAblation)},
	{"extension", 1, formatted(jumpTableExtension)},
}

// Numbers returns the numbers Experiments holds for kind, in order.
func Numbers(kind string) []int {
	var out []int
	for _, e := range Experiments {
		if e.Kind == kind {
			out = append(out, e.Num)
		}
	}
	return out
}

// formatted adapts an experiment's plan to one that renders its result.
func formatted[T interface{ Format() string }](mk func() plan[T]) func() plan[string] {
	return func() plan[string] {
		p := mk()
		return plan[string]{p.points, func(s sweep) string { return p.fold(s).Format() }}
	}
}
