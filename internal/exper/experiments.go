package exper

import "fmt"

// Experiment is one table, figure, ablation or extension of the paper's
// evaluation, run on a Runner and rendered as text.
type Experiment struct {
	Kind string // "table", "figure", "ablation" or "extension"
	Num  int    // its number within the kind, from 1
	Run  func(*Runner) (string, error)
}

// Name is how reports refer to e, e.g. "table 1".
func (e Experiment) Name() string { return fmt.Sprintf("%s %d", e.Kind, e.Num) }

// Experiments lists, in output order, everything one default regeneration
// runs: the experiments CLI with no selection flags and the
// StageRegenerate benchmark both walk this list.
var Experiments = []Experiment{
	{"table", 1, formatted((*Runner).Table1)},
	{"table", 2, formatted((*Runner).Table2)},
	{"table", 3, formatted((*Runner).Table3)},
	{"table", 4, formatted((*Runner).Table4)},
	{"figure", 1, formatted((*Runner).Figure1)},
	{"ablation", 1, formatted((*Runner).PartitionerComparison)},
	{"ablation", 2, formatted((*Runner).PassAblation)},
	{"extension", 1, formatted((*Runner).JumpTableExtension)},
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

// formatted adapts an experiment method to a run that renders its result.
func formatted[T interface{ Format() string }](f func(*Runner) (T, error)) func(*Runner) (string, error) {
	return func(r *Runner) (string, error) {
		v, err := f(r)
		if err != nil {
			return "", err
		}
		return v.Format(), nil
	}
}
