// Package telemetry is the module's observation layer: per-request phase
// traces recorded through context.Context, and a dependency-free metrics
// registry (counters, gauges, fixed-bucket histograms) that serializes to
// the Prometheus text exposition format.
//
// Telemetry is observation-only by construction. Nothing in this package
// touches a random stream, a chunk schedule, or a computed value: a Trace
// only accumulates wall-clock durations and counts into atomics, and the
// registry only reads them. With a fixed seed, results are bit-identical
// whether tracing and metrics are on or off; the only cost of tracing is a
// handful of time.Now calls and atomic adds per request, far below the
// work of a single completion draw. Every Trace method is nil-receiver
// safe, so the untraced hot path pays one pointer comparison and nothing
// else.
package telemetry

import (
	"context"
	"sync/atomic"
	"time"
)

// Phase identifies one stage of the solve pipeline. Spans recorded under
// the same Phase aggregate: a query that solves five decomposed
// subproblems records five PhaseConstruct spans, and the trace reports
// their summed duration with count 5.
type Phase uint8

const (
	// PhaseAdmission is time spent acquiring an engine admission slot
	// (≈0 when a token is free; the queue wait when the engine is
	// saturated). Recorded by internal/engine, so it covers every entry
	// point that admits.
	PhaseAdmission Phase = iota
	// PhaseCondition is the evidence-conditioning graph rewrite of a
	// conditional query (spec resolution; absent for terminal-set specs).
	PhaseCondition
	// PhaseIndex is 2-edge-connected-component index time: the session's
	// shared build (or the wait for a concurrent builder) for base-graph
	// specs, the on-the-fly build inside preprocessing for conditioned
	// ones.
	PhaseIndex
	// PhasePlan is preprocessing/decomposition: prune → decompose →
	// transform, producing the signed subproblems.
	PhasePlan
	// PhaseConstruct is S2BDD construction (the edge order, the frontier
	// plan, layer expansion and table replay), summed over the request's
	// subproblems.
	PhaseConstruct
	// PhaseSample is the stratified completion sampling, summed over the
	// request's subproblems and strata.
	PhaseSample
	// PhaseCombine is the recombination of per-subproblem results into
	// final answers.
	PhaseCombine
	// PhaseInvalidate is cover-based result-cache invalidation during a
	// graph mutation.
	PhaseInvalidate
	// PhaseReindex is carrying the 2ECC index across a graph mutation or
	// an ephemeral what-if delta: the cover map, plus a rebuild when the
	// delta changes topology.
	PhaseReindex
	// NumPhases bounds the Phase enum; it is not a phase.
	NumPhases
)

// phaseNames spells each phase the way Result.Phases, the netreld wire
// format, and the netrel_phase_seconds_total metric label do.
var phaseNames = [NumPhases]string{
	"admission", "condition", "index", "plan", "construct", "sample", "combine",
	"invalidate", "reindex",
}

// String names the phase ("admission", "plan", …).
func (p Phase) String() string {
	if p < NumPhases {
		return phaseNames[p]
	}
	return "unknown"
}

// Annotation identifies one counter a trace carries alongside its spans:
// cache and dedup effectiveness of the traced request.
type Annotation uint8

const (
	// AnnotCacheHits / AnnotCacheMisses count the request's subproblem
	// lookups served from (or missing) the session result cache.
	AnnotCacheHits Annotation = iota
	AnnotCacheMisses
	// AnnotQueriesPlanned / AnnotQueriesDeduped count a batch's distinct
	// planned specs versus the queries answered by another query's plan.
	AnnotQueriesPlanned
	AnnotQueriesDeduped
	// AnnotSubproblems / AnnotSubproblemsDeduped count a batch's subproblem
	// references versus the references answered by a shared solve (the
	// post-dedup schedule solves Subproblems − SubproblemsDeduped jobs).
	AnnotSubproblems
	AnnotSubproblemsDeduped
	// AnnotSamplesDrawn counts completion draws actually made for the
	// request — equal to the full schedule when the request exhausts it,
	// smaller when WithTargetWidth stops subproblems early.
	AnnotSamplesDrawn
	// AnnotEarlyStops counts subproblems whose sampling stopped on the
	// target bound width with schedule budget still unspent.
	AnnotEarlyStops
	// AnnotRounds counts the sampling rounds the request ran; it is only
	// recorded when some solved subproblem had draws scheduled.
	AnnotRounds
	// NumAnnotations bounds the Annotation enum; it is not an annotation.
	NumAnnotations
)

// Trace accumulates the phase spans and annotations of one request. All
// methods are safe for concurrent use (parallel subproblems add to the
// same phases) and safe on a nil receiver (the untraced mode): a nil
// *Trace records nothing and costs one branch.
type Trace struct {
	nanos  [NumPhases]atomic.Int64
	counts [NumPhases]atomic.Int64
	annots [NumAnnotations]atomic.Int64
}

// New returns an empty trace.
func New() *Trace { return &Trace{} }

// Add records one span of d under phase p. Negative durations (clock
// steps) are dropped rather than recorded.
func (t *Trace) Add(p Phase, d time.Duration) {
	if t == nil || p >= NumPhases || d < 0 {
		return
	}
	t.nanos[p].Add(int64(d))
	t.counts[p].Add(1)
}

// Extend adds d to phase p's time without counting a span: for work that
// belongs to a span another layer records, such as a subproblem's edge
// order, computed before core opens the subproblem's construct span.
func (t *Trace) Extend(p Phase, d time.Duration) {
	if t == nil || p >= NumPhases || d < 0 {
		return
	}
	t.nanos[p].Add(int64(d))
}

// Span starts a span under phase p and returns the function that ends it.
// The returned closure must be called exactly once:
//
//	defer tr.Span(telemetry.PhasePlan)()
func (t *Trace) Span(p Phase) func() {
	if t == nil {
		return func() {}
	}
	start := time.Now()
	return func() { t.Add(p, time.Since(start)) }
}

// Annotate adds n to annotation a.
func (t *Trace) Annotate(a Annotation, n int64) {
	if t == nil || a >= NumAnnotations {
		return
	}
	t.annots[a].Add(n)
}

// Snapshot is a point-in-time copy of a trace's accumulators.
type Snapshot struct {
	// Nanos and Counts are indexed by Phase: summed span duration in
	// nanoseconds and the number of spans aggregated.
	Nanos  [NumPhases]int64
	Counts [NumPhases]int64
	// Annots is indexed by Annotation.
	Annots [NumAnnotations]int64
}

// Snapshot copies the trace's current state. A nil trace yields the zero
// snapshot.
func (t *Trace) Snapshot() Snapshot {
	var s Snapshot
	if t == nil {
		return s
	}
	for p := Phase(0); p < NumPhases; p++ {
		s.Nanos[p] = t.nanos[p].Load()
		s.Counts[p] = t.counts[p].Load()
	}
	for a := Annotation(0); a < NumAnnotations; a++ {
		s.Annots[a] = t.annots[a].Load()
	}
	return s
}

// ctxKey is the private context key type for traces.
type ctxKey struct{}

// NewContext returns ctx carrying tr; downstream pipeline stages retrieve
// it with FromContext and record their spans into it. A nil tr returns ctx
// unchanged.
func NewContext(ctx context.Context, tr *Trace) context.Context {
	if tr == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, tr)
}

// FromContext returns the trace carried by ctx, or nil when the request is
// untraced. The nil result is directly usable: every Trace method no-ops
// on a nil receiver.
func FromContext(ctx context.Context) *Trace {
	tr, _ := ctx.Value(ctxKey{}).(*Trace)
	return tr
}
