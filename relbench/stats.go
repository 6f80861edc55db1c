package main

import (
	"fmt"
	"math"
	"sort"
)

// tailLadder lists the percentiles a tail is reported at, highest first.
// The rungs are far apart so that a workload's run-to-run change in sample
// count does not move its tail to another percentile.
var tailLadder = []float64{99, 90, 50}

// minBeyond is how many samples must lie beyond a reported tail percentile.
const minBeyond = 10

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between order statistics; xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// tail is a timing's highest reportable percentile.
type tail struct {
	Label string // "p99", "p90", "p50", or "max" when too few samples
	Value float64
	N     int // sample count
}

// tailOf reports the highest percentile of tailLadder with at least
// minBeyond samples beyond it, and the sample count. With too few samples
// for any rung it reports the maximum.
func tailOf(xs []float64) tail {
	n := len(xs)
	for _, p := range tailLadder {
		if float64(n)*(100-p)/100+1e-9 >= minBeyond {
			return tail{Label: fmt.Sprintf("p%g", p), Value: quantile(xs, p/100), N: n}
		}
	}
	return tail{Label: "max", Value: quantile(xs, 1), N: n}
}

// windowRate is the median, over the whole one-second windows of [0, span),
// of the events that completed in the window; ends are completion times in
// seconds from the start. Below three windows it is the plain rate over
// span. The median leaves out the windows a short stall slowed.
func windowRate(ends []float64, span float64) float64 {
	n := int(span)
	if n < 3 {
		return float64(len(ends)) / span
	}
	counts := make([]float64, n)
	for _, t := range ends {
		if i := int(t); i >= 0 && i < n {
			counts[i]++
		}
	}
	return median(counts)
}
