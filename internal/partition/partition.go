// Package partition implements hardware/software partitioning. The
// primary algorithm is the paper's fast three-step 90-10 heuristic:
//
//  1. Profiling identifies the most frequent few loops — typically 90 %
//     of execution in a few dozen lines — and puts them in hardware.
//  2. Alias information pulls in regions touching the same memory as the
//     selected loops, so those arrays can move into FPGA block RAM.
//  3. Remaining regions are added by profit density until the area
//     constraint is hit (allowing whole-application synthesis when the
//     device is large enough).
//
// The paper chooses this heuristic over classic formulations for speed
// (it targets integration with dynamic partitioning), so the package also
// provides the comparison baselines it cites: a Henkel-style greedy
// gain/area knapsack, a simplified Kalavade/Lee GCLP, and exact
// exhaustive search for small candidate sets.
//
// Every algorithm takes the candidates as a slice and identifies each by
// its index in it: a partition is a step per candidate index (0 for
// software), so names, which a binary's symbol table need not keep
// distinct, play no part.
package partition

import (
	"fmt"
	"slices"
)

// Candidate is one region eligible for hardware implementation.
type Candidate struct {
	// SWTimeNs is the profiled time the region spends on the CPU per
	// application run.
	SWTimeNs float64
	// HWTimeNs is the estimated time of the hardware implementation per
	// application run, including per-invocation communication.
	HWTimeNs float64
	// AreaGates is the estimated equivalent-gate cost.
	AreaGates int
	// Footprint lists the data objects the region accesses (for step 2).
	Footprint []string
	// SizeInstrs is the region's static size ("a few dozen lines").
	SizeInstrs int
}

// Gain is the time saved by moving the candidate to hardware.
func (c *Candidate) Gain() float64 { return c.SWTimeNs - c.HWTimeNs }

// The paper's parameters for step 1 of the 90-10 heuristic.
const (
	// CoverageTarget is the fraction of loop execution time step 1
	// covers; the paper's rule of thumb is 0.9.
	CoverageTarget = 0.9
	// MaxLoopInstrs caps the size of step-1 loops ("a few dozen lines").
	MaxLoopInstrs = 150
)

// Result is a chosen partition of a candidate slice.
type Result struct {
	// Selected lists the indexes of the candidates chosen for hardware,
	// in the order they were taken.
	Selected []int
	// Step is indexed like the candidates: the step (1..3) that selected
	// each one, 0 for one left in software.
	Step []int
	// TotalGates is the area consumed.
	TotalGates int
}

// newResult is an empty partition of n candidates. Step and Selected
// share one backing array: at most n candidates are ever selected.
func newResult(n int) *Result {
	buf := make([]int, 2*n)
	return &Result{Step: buf[:n:n], Selected: buf[n:n]}
}

// take is every algorithm's one selection rule: it records cands[i] as
// chosen at step unless it is already chosen or does not fit the budget
// beside what is selected, and reports whether it did.
func (r *Result) take(cands []Candidate, i, step, budget int) bool {
	if r.Step[i] != 0 || r.TotalGates+cands[i].AreaGates > budget {
		return false
	}
	r.TotalGates += cands[i].AreaGates
	r.Selected = append(r.Selected, i)
	r.Step[i] = step
	return true
}

// fill takes, at step, every unchosen candidate with a positive gain and
// area in order of gain per gate, highest first, while it fits. It is
// the heuristic's step 3.
func (r *Result) fill(cands []Candidate, step, budget int) {
	rest := make([]int, 0, len(cands))
	for i := range cands {
		if c := &cands[i]; r.Step[i] == 0 && c.Gain() > 0 && c.AreaGates > 0 {
			rest = append(rest, i)
		}
	}
	slices.SortStableFunc(rest, func(a, b int) int { return byDensity(&cands[a], &cands[b]) })
	for _, i := range rest {
		r.take(cands, i, step, budget)
	}
}

// Partition runs the three-step 90-10 heuristic under an equivalent-gate
// budget. loops says the candidates are loops, whose step-1 picks are
// capped at MaxLoopInstrs; whole functions go uncapped.
func Partition(cands []Candidate, budgetGates int, loops bool) *Result {
	res := newResult(len(cands))

	// Step 1: the most frequent regions up to the coverage target.
	hot := make([]int, len(cands))
	var total float64
	for i, c := range cands {
		hot[i] = i
		total += c.SWTimeNs
	}
	slices.SortStableFunc(hot, func(a, b int) int { return descending(cands[a].SWTimeNs, cands[b].SWTimeNs) })
	var covered float64
	for _, i := range hot {
		c := &cands[i]
		if total > 0 && covered/total >= CoverageTarget {
			break
		}
		if (loops && c.SizeInstrs > MaxLoopInstrs) || c.Gain() <= 0 {
			continue
		}
		if res.take(cands, i, 1, budgetGates) {
			covered += c.SWTimeNs
		}
	}

	// Step 2: alias affinity — regions sharing arrays with step 1's
	// hardware partition, so the arrays can live in FPGA memory.
	hw := res.Selected
	for i := range cands {
		if res.Step[i] != 0 || cands[i].Gain() <= 0 {
			continue
		}
		if slices.ContainsFunc(hw, func(j int) bool { return shares(&cands[i], &cands[j]) }) {
			res.take(cands, i, 2, budgetGates)
		}
	}

	// Step 3: fill by profit density until the constraint is violated;
	// an entire application can be synthesized if space allows.
	res.fill(cands, 3, budgetGates)
	return res
}

// shares reports whether a and b access a common data object.
func shares(a, b *Candidate) bool {
	for _, s := range a.Footprint {
		if slices.Contains(b.Footprint, s) {
			return true
		}
	}
	return false
}

// descending orders x before y when x > y. It is negative exactly where
// the comparison x > y holds, which is all a stable sort reads, so a NaN
// gain orders as it did under the former less function.
func descending(x, y float64) int {
	switch {
	case x > y:
		return -1
	case x < y:
		return 1
	}
	return 0
}

// byDensity orders candidates by gain per gate, highest first.
func byDensity(a, b *Candidate) int {
	return descending(a.Gain()/float64(a.AreaGates), b.Gain()/float64(b.AreaGates))
}

// GreedyKnapsack is the Henkel-style baseline: pure gain/area ordering,
// which is the heuristic's step 3 on its own.
func GreedyKnapsack(cands []Candidate, budgetGates int) *Result {
	res := newResult(len(cands))
	res.fill(cands, 1, budgetGates)
	return res
}

// GCLP is a simplified Kalavade/Lee global-criticality/local-phase
// baseline: it alternates between time-driven and area-driven selection
// depending on how critical the remaining deadline is, using the
// all-software time as the implicit deadline reference.
func GCLP(cands []Candidate, budgetGates int) *Result {
	res := newResult(len(cands))

	var totalSW float64
	for _, c := range cands {
		totalSW += c.SWTimeNs
	}
	for {
		// Global criticality: fraction of time still spent in software
		// regions; high GC favors the biggest time winner, low GC favors
		// the densest.
		var swLeft float64
		for i, c := range cands {
			if res.Step[i] == 0 {
				swLeft += c.SWTimeNs
			}
		}
		gc := 0.0
		if totalSW > 0 {
			gc = swLeft / totalSW
		}
		best := -1
		var bestKey float64
		for i := range cands {
			c := &cands[i]
			if res.Step[i] != 0 || c.Gain() <= 0 || res.TotalGates+c.AreaGates > budgetGates {
				continue
			}
			var key float64
			if gc > 0.5 {
				key = c.Gain()
			} else {
				key = c.Gain() / float64(c.AreaGates+1)
			}
			if best < 0 || key > bestKey {
				best, bestKey = i, key
			}
		}
		if best < 0 {
			return res
		}
		res.take(cands, best, 1, budgetGates)
	}
}

// Exhaustive finds the subset of least application time — hardware time
// over the selected candidates, software time over the rest — by
// enumeration; it refuses inputs beyond 20 candidates.
func Exhaustive(cands []Candidate, budgetGates int) (*Result, error) {
	if len(cands) > 20 {
		return nil, fmt.Errorf("partition: exhaustive search limited to 20 candidates, got %d", len(cands))
	}
	bestMask, bestTime := 0, 0.0
	for _, c := range cands {
		bestTime += c.SWTimeNs
	}
	for mask := 0; mask < 1<<len(cands); mask++ {
		area, t := 0, 0.0
		for i, c := range cands {
			if mask&(1<<i) != 0 {
				area += c.AreaGates
				t += c.HWTimeNs
			} else {
				t += c.SWTimeNs
			}
		}
		if area <= budgetGates && t < bestTime {
			bestTime, bestMask = t, mask
		}
	}
	res := newResult(len(cands))
	for i := range cands {
		if bestMask&(1<<i) != 0 {
			res.take(cands, i, 1, budgetGates)
		}
	}
	return res, nil
}
