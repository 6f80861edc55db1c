package netrel

import (
	"context"
	"time"

	"netrel/internal/telemetry"
)

// PhaseSpan is one pipeline phase's aggregated wall-clock within a traced
// request: Duration sums every span recorded under the phase and Count
// says how many were aggregated (a query decomposed into five subproblems
// reports one "construct" PhaseSpan with Count 5).
type PhaseSpan struct {
	// Phase names the pipeline stage: "admission" (engine queue wait),
	// "condition" (evidence graph rewrite), "index" (2ECC index build),
	// "plan" (prune/decompose/transform), "construct" (S2BDD layer
	// expansion), "sample" (stratified completion sampling), "combine"
	// (recombination of subproblem results).
	Phase string
	// Duration is the summed wall-clock of the phase's spans.
	Duration time.Duration
	// Count is the number of spans aggregated into Duration.
	Count int
}

// PhaseBreakdown is a traced request's phase timings and effectiveness
// counters, attached as Result.Phases by WithTrace. Spans are in pipeline
// order and include only phases that actually ran. Phases may nest —
// conditioned specs build their index inside planning, so their "index"
// time is also inside "plan" — but "construct", "sample" and "combine"
// are mutually disjoint and, with "plan", cover the solve wall-clock.
type PhaseBreakdown struct {
	// Spans are the recorded phases in pipeline order.
	Spans []PhaseSpan
	// CacheHits and CacheMisses count the request's subproblem lookups
	// against the session result cache.
	CacheHits, CacheMisses int64
	// QueriesPlanned counts the call's distinct planned specs (1 for a
	// single query); QueriesDeduped the queries answered by another
	// query's plan.
	QueriesPlanned, QueriesDeduped int64
	// Subproblems counts the call's subproblem references across all
	// queries; SubproblemsDeduped those answered by a shared solve (the
	// schedule solved Subproblems − SubproblemsDeduped jobs).
	Subproblems, SubproblemsDeduped int64
	// SamplesDrawn counts completion draws actually made; EarlyStops the
	// subproblems halted by WithTargetWidth before exhausting their
	// schedule; Rounds the sampling rounds run — 1 for a default sampled
	// solve, up to WithSampleRounds otherwise, and 0 when no solved
	// subproblem had draws scheduled (exact, cached or disconnected
	// answers).
	SamplesDrawn, EarlyStops, Rounds int64
}

// Span returns the span of the named phase and whether it was recorded.
func (b *PhaseBreakdown) Span(phase string) (PhaseSpan, bool) {
	for _, s := range b.Spans {
		if s.Phase == phase {
			return s, true
		}
	}
	return PhaseSpan{}, false
}

// newPhaseBreakdown converts a telemetry snapshot into the public shape.
func newPhaseBreakdown(s telemetry.Snapshot) *PhaseBreakdown {
	b := &PhaseBreakdown{
		CacheHits:          s.Annots[telemetry.AnnotCacheHits],
		CacheMisses:        s.Annots[telemetry.AnnotCacheMisses],
		QueriesPlanned:     s.Annots[telemetry.AnnotQueriesPlanned],
		QueriesDeduped:     s.Annots[telemetry.AnnotQueriesDeduped],
		Subproblems:        s.Annots[telemetry.AnnotSubproblems],
		SubproblemsDeduped: s.Annots[telemetry.AnnotSubproblemsDeduped],
		SamplesDrawn:       s.Annots[telemetry.AnnotSamplesDrawn],
		EarlyStops:         s.Annots[telemetry.AnnotEarlyStops],
		Rounds:             s.Annots[telemetry.AnnotRounds],
	}
	for p := telemetry.Phase(0); p < telemetry.NumPhases; p++ {
		if s.Counts[p] == 0 {
			continue
		}
		b.Spans = append(b.Spans, PhaseSpan{
			Phase:    p.String(),
			Duration: time.Duration(s.Nanos[p]),
			Count:    int(s.Counts[p]),
		})
	}
	return b
}

// ensureTrace returns ctx carrying a telemetry trace when the request asked
// for a phase breakdown (WithTrace) and none is attached yet. A serving
// layer that attached its own trace (netreld, for metrics) keeps it; the
// trace is nil — and every recording site no-ops — for untraced requests.
func ensureTrace(ctx context.Context, o options) (context.Context, *telemetry.Trace) {
	tr := telemetry.FromContext(ctx)
	if tr == nil && o.trace {
		tr = telemetry.New()
		ctx = telemetry.NewContext(ctx, tr)
	}
	return ctx, tr
}

// attachPhases populates out.Phases from the trace when the request asked
// for it via WithTrace.
func attachPhases(out *Result, tr *telemetry.Trace, o options) {
	if out != nil && tr != nil && o.trace {
		out.Phases = newPhaseBreakdown(tr.Snapshot())
	}
}

// clone returns an independent copy, so batch queries fanned out from one
// shared plan never alias breakdown storage.
func (b *PhaseBreakdown) clone() *PhaseBreakdown {
	if b == nil {
		return nil
	}
	out := *b
	out.Spans = append([]PhaseSpan(nil), b.Spans...)
	return &out
}
