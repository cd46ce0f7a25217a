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
package partition

import (
	"fmt"
	"slices"
)

// Candidate is one region eligible for hardware implementation.
type Candidate struct {
	// Name identifies the region for reports.
	Name string
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
	// Payload carries caller context (e.g. the synthesized design).
	Payload any
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

// Result is a chosen partition.
type Result struct {
	Selected []*Candidate
	// Step maps candidate name to the step (1..3) that selected it.
	Step map[string]int
	// TotalGates is the area consumed.
	TotalGates int
}

// take is every algorithm's one selection rule: it records c as chosen
// at step unless c is already in chosen or does not fit the budget
// beside what is selected, and reports whether it did. chosen is the
// caller's set of selected candidates.
func (r *Result) take(c *Candidate, step int, chosen map[*Candidate]bool, budget int) bool {
	if chosen[c] || r.TotalGates+c.AreaGates > budget {
		return false
	}
	chosen[c] = true
	r.TotalGates += c.AreaGates
	r.Selected = append(r.Selected, c)
	r.Step[c.Name] = step
	return true
}

// fill takes, at step, every unchosen candidate with a positive gain and
// area in order of gain per gate, highest first, while it fits. It is
// the heuristic's step 3.
func (r *Result) fill(cands []*Candidate, step int, chosen map[*Candidate]bool, budget int) {
	rest := make([]*Candidate, 0, len(cands))
	for _, c := range cands {
		if !chosen[c] && c.Gain() > 0 && c.AreaGates > 0 {
			rest = append(rest, c)
		}
	}
	slices.SortStableFunc(rest, byDensity)
	for _, c := range rest {
		r.take(c, step, chosen, budget)
	}
}

// totalTime sums HW time over selected and SW time over the rest.
func totalTime(cands []*Candidate, chosen map[*Candidate]bool) float64 {
	var t float64
	for _, c := range cands {
		if chosen[c] {
			t += c.HWTimeNs
		} else {
			t += c.SWTimeNs
		}
	}
	return t
}

// Partition runs the three-step 90-10 heuristic under an equivalent-gate
// budget. loops says the candidates are loops, whose step-1 picks are
// capped at MaxLoopInstrs; whole functions go uncapped.
func Partition(cands []*Candidate, budgetGates int, loops bool) *Result {
	res := &Result{Step: map[string]int{}}
	chosen := map[*Candidate]bool{}

	// Step 1: the most frequent regions up to the coverage target.
	hot := slices.Clone(cands)
	var total float64
	for _, c := range cands {
		total += c.SWTimeNs
	}
	slices.SortStableFunc(hot, func(a, b *Candidate) int { return descending(a.SWTimeNs, b.SWTimeNs) })
	var covered float64
	for _, c := range hot {
		if total > 0 && covered/total >= CoverageTarget {
			break
		}
		if (loops && c.SizeInstrs > MaxLoopInstrs) || c.Gain() <= 0 {
			continue
		}
		if res.take(c, 1, chosen, budgetGates) {
			covered += c.SWTimeNs
		}
	}

	// Step 2: alias affinity — regions sharing arrays with the hardware
	// partition, so the arrays can live in FPGA memory.
	inHW := map[string]bool{}
	for c := range chosen {
		for _, s := range c.Footprint {
			inHW[s] = true
		}
	}
	for _, c := range cands {
		if chosen[c] || c.Gain() <= 0 {
			continue
		}
		affine := false
		for _, s := range c.Footprint {
			if inHW[s] {
				affine = true
			}
		}
		if affine {
			res.take(c, 2, chosen, budgetGates)
		}
	}

	// Step 3: fill by profit density until the constraint is violated;
	// an entire application can be synthesized if space allows.
	res.fill(cands, 3, chosen, budgetGates)
	return res
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
func GreedyKnapsack(cands []*Candidate, budgetGates int) *Result {
	res := &Result{Step: map[string]int{}}
	res.fill(cands, 1, map[*Candidate]bool{}, budgetGates)
	return res
}

// GCLP is a simplified Kalavade/Lee global-criticality/local-phase
// baseline: it alternates between time-driven and area-driven selection
// depending on how critical the remaining deadline is, using the
// all-software time as the implicit deadline reference.
func GCLP(cands []*Candidate, budgetGates int) *Result {
	res := &Result{Step: map[string]int{}}
	chosen := map[*Candidate]bool{}

	var totalSW float64
	for _, c := range cands {
		totalSW += c.SWTimeNs
	}
	for {
		// Global criticality: fraction of time still spent in software
		// regions; high GC favors the biggest time winner, low GC favors
		// the densest.
		var swLeft float64
		for _, c := range cands {
			if !chosen[c] {
				swLeft += c.SWTimeNs
			}
		}
		gc := 0.0
		if totalSW > 0 {
			gc = swLeft / totalSW
		}
		var best *Candidate
		var bestKey float64
		for _, c := range cands {
			if chosen[c] || c.Gain() <= 0 || res.TotalGates+c.AreaGates > budgetGates {
				continue
			}
			var key float64
			if gc > 0.5 {
				key = c.Gain()
			} else {
				key = c.Gain() / float64(c.AreaGates+1)
			}
			if best == nil || key > bestKey {
				best, bestKey = c, key
			}
		}
		if best == nil {
			return res
		}
		res.take(best, 1, chosen, budgetGates)
	}
}

// Exhaustive finds the optimal subset by enumeration; it refuses inputs
// beyond 20 candidates.
func Exhaustive(cands []*Candidate, budgetGates int) (*Result, error) {
	if len(cands) > 20 {
		return nil, fmt.Errorf("partition: exhaustive search limited to 20 candidates, got %d", len(cands))
	}
	bestMask := 0
	bestTime := totalTime(cands, nil)
	for mask := 0; mask < 1<<len(cands); mask++ {
		area := 0
		chosen := map[*Candidate]bool{}
		for i, c := range cands {
			if mask&(1<<i) != 0 {
				area += c.AreaGates
				chosen[c] = true
			}
		}
		if area > budgetGates {
			continue
		}
		if t := totalTime(cands, chosen); t < bestTime {
			bestTime, bestMask = t, mask
		}
	}
	res := &Result{Step: map[string]int{}}
	chosen := map[*Candidate]bool{}
	for i, c := range cands {
		if bestMask&(1<<i) != 0 {
			res.take(c, 1, chosen, budgetGates)
		}
	}
	return res, nil
}
