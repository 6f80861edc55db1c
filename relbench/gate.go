package main

import (
	"errors"
	"fmt"
	"math"

	"netrel"
	"netrel/datasets"
)

// errGate marks a failed correctness check: the run exits non-zero and
// prints no metrics.
var errGate = errors.New("correctness gate")

func gateFail(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errGate, fmt.Sprintf(format, args...))
}

// answer is the part of a reliability result the gate checks.
type answer struct {
	Reliability, Lower, Upper, Variance float64
	SamplesUsed, Subproblems            int
}

func answerOf(r *netrel.Result) answer {
	return answer{r.Reliability, r.Lower, r.Upper, r.Variance, r.SamplesUsed, r.Subproblems}
}

// checkBounds requires 0 ≤ Lower ≤ R ≤ Upper ≤ 1 and a finite,
// non-negative variance.
func checkBounds(a answer) error {
	if !(0 <= a.Lower && a.Lower <= a.Reliability && a.Reliability <= a.Upper && a.Upper <= 1) {
		return gateFail("answer %v outside its bounds [%v, %v] or [0, 1]", a.Reliability, a.Lower, a.Upper)
	}
	if !(a.Variance >= 0) || math.IsInf(a.Variance, 0) {
		return gateFail("answer variance %v", a.Variance)
	}
	return nil
}

// checkSame requires two answers to agree bit for bit.
func checkSame(what string, want, got answer) error {
	b := math.Float64bits
	if b(want.Reliability) != b(got.Reliability) || b(want.Lower) != b(got.Lower) ||
		b(want.Upper) != b(got.Upper) || b(want.Variance) != b(got.Variance) ||
		want.SamplesUsed != got.SamplesUsed || want.Subproblems != got.Subproblems {
		return gateFail("%s: got %+v, want %+v", what, got, want)
	}
	return nil
}

const karateSamples = 20_000

// karateGate answers a few seeded Karate terminal sets exactly and by the
// sampling pipeline at a width small enough to force node deletion: the
// exact value must lie inside the sampled answer's proven bounds and
// within 5σ of its estimate.
func karateGate(seed uint64) error {
	g := datasets.Karate(seed)
	for i := 0; i < 3; i++ {
		ts, err := datasets.RandomTerminals(g, 2+i, seed+uint64(i))
		if err != nil {
			return err
		}
		ex, err := netrel.Exact(g, ts, netrel.WithMaxWidth(4_000_000))
		if err != nil {
			return fmt.Errorf("karate exact %v: %w", ts, err)
		}
		est, err := netrel.Reliability(g, ts, netrel.WithSamples(karateSamples), netrel.WithMaxWidth(4), netrel.WithSeed(seed))
		if err != nil {
			return fmt.Errorf("karate reliability %v: %w", ts, err)
		}
		if err := checkBounds(answerOf(est)); err != nil {
			return err
		}
		if ex.Reliability < est.Lower || ex.Reliability > est.Upper {
			return gateFail("karate %v: exact %v outside bounds [%v, %v]", ts, ex.Reliability, est.Lower, est.Upper)
		}
		// σ is plain Monte Carlo's at the same budget: the stratified
		// Variance the pipeline reports under-covers its error on this
		// graph (by up to 10⁷σ at width 256), so it cannot gate.
		sd := math.Sqrt(ex.Reliability * (1 - ex.Reliability) / karateSamples)
		if d := math.Abs(ex.Reliability - est.Reliability); d > 5*sd && d > 1e-12 {
			return gateFail("karate %v: exact %v, estimate %v, σ %v", ts, ex.Reliability, est.Reliability, sd)
		}
	}
	return nil
}
