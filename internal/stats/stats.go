// Package stats implements the accuracy metrics of the paper's Section 7.6:
// variance and error rate of repeated approximations against exact values.
package stats

import (
	"errors"
	"math"
)

// Accuracy evaluates repeated approximations against exact references using
// the paper's definitions:
//
//	variance   = ΣᵢΣⱼ (Rᵢ − R̂ᵢⱼ)² / (q1·q2)
//	error rate = ΣᵢΣⱼ |Rᵢ − R̂ᵢⱼ| / (q1·q2·Rᵢ)
//
// exact has length q1 (one per search); estimates[i] holds the q2 repeated
// approximations of search i.
type Accuracy struct {
	Variance  float64
	ErrorRate float64
	Searches  int
	Repeats   int
}

// ErrShape reports mismatched evaluation inputs.
var ErrShape = errors.New("stats: estimates shape does not match exact values")

// EvalAccuracy computes the paper's accuracy metrics. Searches with exact
// reliability zero contribute |R−R̂|/max(R, floor) with floor=1e-300 to the
// error rate only if an estimate is nonzero; an exact zero matched by zero
// estimates contributes zero error (the natural reading, and the case never
// arises in the paper's tables where all exact values are positive).
func EvalAccuracy(exact []float64, estimates [][]float64) (Accuracy, error) {
	q1 := len(exact)
	if q1 == 0 || len(estimates) != q1 {
		return Accuracy{}, ErrShape
	}
	q2 := len(estimates[0])
	if q2 == 0 {
		return Accuracy{}, ErrShape
	}
	varSum, errSum := 0.0, 0.0
	for i, r := range exact {
		if len(estimates[i]) != q2 {
			return Accuracy{}, ErrShape
		}
		for _, rhat := range estimates[i] {
			d := r - rhat
			varSum += d * d
			if d != 0 {
				den := r
				if den <= 0 {
					den = 1e-300
				}
				errSum += math.Abs(d) / den
			}
		}
	}
	n := float64(q1 * q2)
	return Accuracy{
		Variance:  varSum / n,
		ErrorRate: errSum / n,
		Searches:  q1,
		Repeats:   q2,
	}, nil
}
