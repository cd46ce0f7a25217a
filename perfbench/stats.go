package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// samples holds one latency class's recorded values, in the unit they
// are reported in. Percentiles are exact (nearest rank over the sorted
// samples), never read from a bucketed histogram.
type samples struct {
	name string
	unit string
	v    []float64
}

func newSamples(name, unit string) *samples { return &samples{name: name, unit: unit} }

func (s *samples) add(x float64) { s.v = append(s.v, x) }

// addDur records a duration converted to the sample's unit.
func (s *samples) addDur(d time.Duration) {
	switch s.unit {
	case "us":
		s.add(float64(d.Nanoseconds()) / 1e3)
	case "ms":
		s.add(float64(d.Nanoseconds()) / 1e6)
	case "s":
		s.add(d.Seconds())
	default:
		panic("samples: no duration unit " + s.unit)
	}
}

func (s *samples) n() int { return len(s.v) }

// quantile returns the nearest-rank q-quantile: the smallest sample with
// at least a q share of the samples at or below it. NaN when empty.
func (s *samples) quantile(q float64) float64 {
	if len(s.v) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), s.v...)
	sort.Float64s(sorted)
	i := int(math.Ceil(q*float64(len(sorted))-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// reportedPercentiles are the percentiles a summary line considers.
var reportedPercentiles = []float64{50, 90, 99, 99.9}

// supported reports whether percentile p has at least ten samples
// beyond it.
func supported(p float64, n int) bool {
	rank := int(math.Ceil(p/100*float64(n) - 1e-9)) // nearest rank, robust to p/100 rounding
	return n-rank >= 10
}

// summary renders the class as one line: sample count, every reported
// percentile (those with fewer than ten samples beyond them are marked
// "*"), and the highest percentile the sample supports.
func (s *samples) summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s n=%-6d", s.name, s.n())
	top := "none"
	for _, p := range reportedPercentiles {
		mark := ""
		if supported(p, s.n()) {
			top = "p" + trimFloat(p)
		} else {
			mark = "*"
		}
		fmt.Fprintf(&b, " p%s=%.4g%s", trimFloat(p), s.quantile(p/100), mark)
	}
	fmt.Fprintf(&b, " %s (highest with >=10 samples beyond: %s; * = fewer)", s.unit, top)
	return b.String()
}

func trimFloat(f float64) string { return strings.TrimSuffix(fmt.Sprintf("%g", f), ".0") }

// median returns the middle value of xs (the mean of the two middle
// values for an even count). NaN when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// perPass splits xs into n passes of consecutive elements and returns
// stat(pass) for each. Figures are medians over passes, so that a burst of
// host interference confined to a few passes does not move them.
func perPass[T any](xs []T, n int, stat func([]T) float64) []float64 {
	var out []float64
	per := (len(xs) + n - 1) / n
	for lo := 0; lo < len(xs); lo += per {
		out = append(out, stat(xs[lo:min(lo+per, len(xs))]))
	}
	return out
}
