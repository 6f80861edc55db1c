// Anytime adaptive sampling: the sampling rounds behind WithSampleRounds,
// WithTargetWidth and WithProgress.
//
// solveJobs constructs a resumable core.Sampler per unique subproblem and
// spends the combined budget in rounds — one by default, which draws every
// schedule whole. With more rounds, each allocates its slice of the
// remaining schedule where bound-gap × query-fan-in is largest
// (batch.Allocate), checks WithTargetWidth against the refreshed anytime
// intervals, and reports progress. Since a schedule folds bit-identically
// however rounds split it, the round structure alone never changes a
// result — with eps = 0 every schedule is eventually exhausted and the
// answers match the one-round solve bit for bit.
package netrel

import (
	"math"

	"netrel/internal/core"
)

// Progress is one anytime-bounds update delivered to a WithProgress sink.
// Updates for a given query carry a non-decreasing Lower and non-increasing
// Upper; the final update of a solve has Done set.
type Progress struct {
	// Query is the index of the query this update describes: always 0 for
	// single-query entry points, the batch position for BatchReliability.
	Query int
	// Round is the 1-based sampling round that produced the update.
	Round int
	// Lower and Upper bracket the reliability; Estimate is the current
	// anytime point estimate inside them.
	Lower, Upper, Estimate float64
	// SamplesUsed counts the completion draws this query's subproblems have
	// consumed so far (shared subproblems count toward every query using
	// them).
	SamplesUsed int
	// Done marks the final update for the query.
	Done bool
}

// jobBounds is one subproblem's current anytime interval, point estimate
// and draw count — the per-round snapshot reports are assembled from.
type jobBounds struct {
	lo, hi, est float64
	drawn       int
}

// boundsFromResult projects a finished (cached or exact) subproblem result
// onto the same interval shape live samplers report: the proven bounds
// narrowed by the 3σ confidence band around the estimate.
func boundsFromResult(r core.Result) jobBounds {
	sigma := 3 * math.Sqrt(r.Variance)
	return jobBounds{
		lo:    math.Max(r.Lower, r.Estimate-sigma),
		hi:    math.Min(r.Upper, r.Estimate+sigma),
		est:   r.Estimate,
		drawn: r.SamplesUsed,
	}
}

// combineBounds folds per-subproblem intervals into a query-level one:
// R = factor · Π R_i with every factor in [0, 1], so interval endpoints
// multiply and per-job monotone tightening yields query-level monotone
// tightening. drawn sums the referenced subproblems' draws.
func combineBounds(factor float64, bounds []jobBounds, refs []int) (lo, hi, est float64, drawn int) {
	lo, hi, est = factor, factor, factor
	for _, u := range refs {
		b := bounds[u]
		lo *= b.lo
		hi *= b.hi
		est *= b.est
		drawn += b.drawn
	}
	lo = math.Min(math.Max(lo, 0), 1)
	hi = math.Min(math.Max(hi, 0), 1)
	est = math.Min(math.Max(est, lo), hi)
	return lo, hi, est, drawn
}
