// Package netrel computes k-terminal network reliability in uncertain
// graphs: the probability that a given set of terminal vertices is mutually
// connected when every edge exists independently with its own probability.
//
// It reproduces "Efficient Network Reliability Computation in Uncertain
// Graphs" (Sasaki, Fujiwara, Onizuka; EDBT 2019): a stratified-sampling
// estimator driven by reliability bounds from a width-bounded streaming
// binary decision diagram (S2BDD), plus a reliability-preserving graph
// reduction based on 2-edge-connected components. Exact computation is
// available for small graphs via the same machinery and via a classic
// full-BDD baseline.
//
// Quick start:
//
//	g := netrel.NewGraph(4)
//	g.AddEdge(0, 1, 0.9)
//	g.AddEdge(1, 2, 0.8)
//	g.AddEdge(2, 3, 0.9)
//	g.AddEdge(3, 0, 0.7)
//	res, err := netrel.Reliability(g, []int{0, 2}, netrel.WithSamples(10000))
//
// For many queries against one graph, build a Session: it precomputes the
// 2ECC index once and caches solved subproblem results, and its
// BatchReliability answers whole query batches by planning each distinct
// terminal set once (in parallel) and deduplicating the decomposed
// subproblems across queries — bit-identical to querying one at a time,
// since every subproblem's random stream derives from a canonical
// signature of what is being solved:
//
//	s := netrel.NewSession(g)
//	results, err := s.BatchReliability([]netrel.Query{
//		{Terminals: []int{0, 2}},
//		{Terminals: []int{1, 3}},
//	}, netrel.WithSamples(10000), netrel.WithSeed(1))
//
// The query core is shape-agnostic: a QuerySpec selects between
// terminal-set reliability (s-t is its two-terminal case), conditional
// reliability under edge evidence (Solve with ModeConditional — evidence is
// applied as an exact graph conditioning before decomposition), and top-k
// reliable search (Session.TopKReliable ranks candidate vertices by driving
// them as one deduplicated batch). Batches may mix terminal-set and
// conditional queries freely; dedup still applies wherever their decomposed
// subproblems coincide.
//
// Execution rides a process-wide Engine: a shared worker pool with
// admission control, so many concurrent callers never oversubscribe the
// machine (see Engine, Registry). Every entry point has a …Context variant
// whose cancellation propagates to chunk granularity; neither the engine
// nor cancellation ever changes a computed value.
package netrel

import (
	"context"
	"errors"
	"math"
	"time"

	"netrel/internal/batch"
	"netrel/internal/core"
	"netrel/internal/exact"
	"netrel/internal/order"
	"netrel/internal/preprocess"
	"netrel/internal/sampling"
	"netrel/internal/telemetry"
	"netrel/internal/ugraph"
	"netrel/internal/xfloat"
)

// Result reports a reliability computation.
type Result struct {
	// Reliability is the estimate R̂[G,T] (exact when Exact is true).
	Reliability float64
	// Log10 is log10 of the estimate, valid even when the value underflows
	// float64; it is -Inf for zero.
	Log10 float64
	// Lower and Upper bound the true reliability: pc ≤ R ≤ 1−pd.
	Lower, Upper float64
	// Exact reports that no sampling was involved.
	Exact bool
	// Variance is the stratified variance bound of the estimate (0 when
	// exact).
	Variance float64

	// SamplesRequested, SamplesReduced and SamplesUsed report the budget s,
	// the Theorem 1 reduction s′, and the draws actually made, summed over
	// decomposed subproblems.
	SamplesRequested int
	SamplesReduced   int
	SamplesUsed      int

	// Subproblems is the number of decomposed components solved (1 when
	// the extension is disabled); Preprocess carries reduction statistics.
	Subproblems int
	Preprocess  *PreprocessStats

	// Duration is the query's own plan-plus-solve wall-clock. Admission
	// waiting and the graph's shared 2ECC index build are not included
	// (WithTrace reports them as phases).
	Duration time.Duration

	// Phases is the per-phase wall-clock breakdown of this request,
	// populated only under WithTrace (nil otherwise). Tracing is
	// observation-only: the computed values above are bit-identical with
	// it on or off.
	Phases *PhaseBreakdown
}

// PreprocessStats summarizes the extension technique's effect.
type PreprocessStats struct {
	// OriginalEdges and MaxSubgraphEdges give the paper's "reduced graph
	// size" ratio.
	OriginalEdges    int
	MaxSubgraphEdges int
	ReducedRatio     float64
	// Bridges is the number of bridge edges whose probability was factored
	// out exactly.
	Bridges int
	// Duration is the query's reduction wall-clock (prune, decompose,
	// transform). The graph's shared 2ECC index is built once and timed
	// separately, as the "index" phase under WithTrace; Table 5 reports
	// their sum.
	Duration time.Duration
}

// ErrTerminalsRequired reports fewer than one terminal.
var ErrTerminalsRequired = errors.New("netrel: at least one terminal is required")

// ErrNotExact reports that an Exact call would have required sampling: the
// graph is too large for an exact S2BDD within the configured MaxWidth.
// Callers can retry with a larger WithMaxWidth or accept an approximation
// via Reliability.
var ErrNotExact = core.ErrNotExact

// Reliability approximates R[G,T] with the paper's full pipeline:
// preprocess (unless disabled) → S2BDD with bounds, Theorem 1 sample
// reduction, and stratified completion sampling per subproblem → product.
// Execution rides the process-wide DefaultEngine worker pool.
func Reliability(g *Graph, terminals []int, opts ...Option) (*Result, error) {
	return ReliabilityContext(context.Background(), g, terminals, opts...)
}

// ReliabilityContext is Reliability with cancellation: when ctx is
// cancelled or its deadline passes, the computation stops at the next
// layer or chunk boundary, frees its engine slots, and returns ctx.Err().
// ctx never affects the result — a cancelled-then-retried query returns
// exactly what an uninterrupted one would.
func ReliabilityContext(ctx context.Context, g *Graph, terminals []int, opts ...Option) (*Result, error) {
	return SolveContext(ctx, g, QuerySpec{Terminals: terminals}, opts...)
}

// Solve answers one mode-polymorphic QuerySpec — terminal-set (today's
// Reliability), or conditional reliability under edge evidence — with the
// paper's full pipeline. Conditional specs rewrite the graph first (an
// up-edge becomes certain, a down-edge is removed; exact for independent
// edges), then run the ordinary decompose → sign → solve path, so the
// result is deterministic per seed exactly like every other entry point.
// ModeTopK yields a ranking and is served by Session.TopKReliable.
func Solve(g *Graph, spec QuerySpec, opts ...Option) (*Result, error) {
	return SolveContext(context.Background(), g, spec, opts...)
}

// SolveContext is Solve with cancellation (see ReliabilityContext).
func SolveContext(ctx context.Context, g *Graph, spec QuerySpec, opts ...Option) (*Result, error) {
	return oneShotSession(g).SolveContext(ctx, spec, opts...)
}

// SolveExact is Solve with sampling disabled: if any subproblem of the
// (possibly conditioned) decomposition exceeds the width limit the call
// fails with ErrNotExact rather than estimate.
func SolveExact(g *Graph, spec QuerySpec, opts ...Option) (*Result, error) {
	return SolveExactContext(context.Background(), g, spec, opts...)
}

// SolveExactContext is SolveExact with cancellation (see
// ReliabilityContext).
func SolveExactContext(ctx context.Context, g *Graph, spec QuerySpec, opts ...Option) (*Result, error) {
	return oneShotSession(g).SolveExactContext(ctx, spec, opts...)
}

// oneShotSession is the throwaway session behind the package-level S2BDD
// entry points: DefaultEngine execution, no result cache, and an index the
// query builds for itself.
func oneShotSession(g *Graph) *Session {
	s := &Session{eng: DefaultEngine()}
	s.state.Store(&graphState{g: g})
	return s
}

// Exact computes R[G,T] exactly via the S2BDD with unbounded sampling
// disabled: if the diagram exceeds the width limit the call fails rather
// than estimate. Suitable for small graphs (≈ a few hundred edges after
// preprocessing, structure permitting).
func Exact(g *Graph, terminals []int, opts ...Option) (*Result, error) {
	return ExactContext(context.Background(), g, terminals, opts...)
}

// ExactContext is Exact with cancellation (see ReliabilityContext).
func ExactContext(ctx context.Context, g *Graph, terminals []int, opts ...Option) (*Result, error) {
	return SolveExactContext(ctx, g, QuerySpec{Terminals: terminals}, opts...)
}

// MonteCarlo estimates R[G,T] by plain possible-world sampling — the
// baseline the paper compares against. The estimator option selects Monte
// Carlo or Horvitz–Thompson weighting. It draws like an S2BDD that builds
// no layers: every sample completes the root state over the whole graph,
// flipping only the coins the completion reaches, so the baseline and the
// S2BDD differ in method, not in draw kernel. The answer reports the
// trivial bounds [0, 1] and, for either estimator, the Equation 2
// variance.
func MonteCarlo(g *Graph, terminals []int, opts ...Option) (*Result, error) {
	return MonteCarloContext(context.Background(), g, terminals, opts...)
}

// MonteCarloContext is MonteCarlo with cancellation (see
// ReliabilityContext).
func MonteCarloContext(ctx context.Context, g *Graph, terminals []int, opts ...Option) (*Result, error) {
	return runBaseline(ctx, g, terminals, opts, samplingCost,
		func(ctx context.Context, o options, ts ugraph.Terminals, exec sampling.Executor) (*Result, error) {
			s, err := core.NewRootSampler(ctx, g.internal(), ts, core.Config{
				Samples:   o.samples,
				Estimator: o.estimatorKind(),
				Seed:      o.seed,
				Workers:   o.workers,
				Exec:      exec,
			})
			if err != nil {
				return nil, err
			}
			// Resume times the draws as the sample phase.
			if _, err := s.Resume(ctx, s.Remaining()); err != nil {
				return nil, err
			}
			res, err := s.Result()
			if err != nil {
				return nil, err
			}
			return &Result{
				Reliability:      res.Estimate,
				Log10:            log10OrInf(res.Estimate),
				Lower:            0,
				Upper:            1,
				Variance:         res.Variance,
				SamplesRequested: o.samples,
				SamplesReduced:   o.samples,
				SamplesUsed:      o.samples,
			}, nil
		})
}

// BDDExact computes R[G,T] exactly with the paper's frontier BDD baseline
// (Section 3.2.1): the S2BDD construction with no width bound, no early
// sink detection and no deletion, so every layer is built whole and a sink
// is found only when a component retires. A diagram that outgrows the node
// budget (WithBDDNodeBudget) fails with a DNF error naming the layer.
func BDDExact(g *Graph, terminals []int, opts ...Option) (*Result, error) {
	return BDDExactContext(context.Background(), g, terminals, opts...)
}

// BDDExactContext is BDDExact with cancellation (see ReliabilityContext).
func BDDExactContext(ctx context.Context, g *Graph, terminals []int, opts ...Option) (*Result, error) {
	return runBaseline(ctx, g, terminals, opts, bddCost,
		func(ctx context.Context, o options, ts ugraph.Terminals, exec sampling.Executor) (*Result, error) {
			// NewSampler records the construct span.
			s, err := core.NewSampler(ctx, g.internal(), ts, core.Config{
				MaxWidth:                math.MaxInt,
				Order:                   order.Compute(g.internal(), o.ordering.strategy(), ts[0]),
				ExactOnly:               true,
				DisableEarlyTermination: true,
				DisableHeuristic:        true,
				NodeBudget:              o.bddBudget,
				Workers:                 o.workers,
				Exec:                    exec,
			})
			if err != nil {
				return nil, err
			}
			res, err := s.Result()
			if err != nil {
				return nil, err
			}
			return exactResult(res.EstimateX), nil
		})
}

// Factoring computes R[G,T] exactly by the factoring theorem with
// series-parallel reductions, within a fixed budget of recursive calls.
// Practical only for small, sparse graphs; used mainly as an independent
// cross-check. Options are accepted for interface uniformity
// with the rest of the solvers (the differential harness sweeps them all
// through one signature) but don't affect the deterministic computation.
func Factoring(g *Graph, terminals []int, opts ...Option) (*Result, error) {
	return FactoringContext(context.Background(), g, terminals, opts...)
}

// FactoringContext is Factoring with cancellation and admission (see
// ReliabilityContext): the recursion aborts at the next stride boundary
// when ctx is cancelled, and the call occupies an engine admission slot
// billed at its recursion budget while it runs.
func FactoringContext(ctx context.Context, g *Graph, terminals []int, opts ...Option) (*Result, error) {
	return runBaseline(ctx, g, terminals, opts, factoringCost,
		func(ctx context.Context, _ options, ts ugraph.Terminals, _ sampling.Executor) (*Result, error) {
			defer telemetry.FromContext(ctx).Span(telemetry.PhaseConstruct)()
			r, err := exact.FactoringContext(ctx, g.internal(), ts, exact.DefaultFactoringBudget)
			if err != nil {
				return nil, err
			}
			return exactResult(r), nil
		})
}

// runBaseline runs one of the paper's baseline solvers on one terminal set:
// it builds the options, resolves the terminals and admits the call on
// DefaultEngine at cost(o). solve returns the answer fields and records
// its own spans in ctx's trace; runBaseline adds Subproblems, Duration
// and, under WithTrace, Phases.
func runBaseline(ctx context.Context, g *Graph, terminals []int, opts []Option,
	cost func(options) int64,
	solve func(ctx context.Context, o options, ts ugraph.Terminals, exec sampling.Executor) (*Result, error)) (*Result, error) {
	o, err := buildOptions(opts)
	if err != nil {
		return nil, err
	}
	ts, err := ugraph.NewTerminals(g.internal(), terminals)
	if err != nil {
		return nil, err
	}
	ctx, tr := ensureTrace(ctx, o)
	eng := DefaultEngine()
	release, err := eng.admit(ctx, cost(o))
	if err != nil {
		return nil, err
	}
	defer release()
	start := time.Now()
	out, err := solve(ctx, o, ts, eng.exec())
	if err != nil {
		return nil, err
	}
	out.Subproblems = 1
	out.Duration = time.Since(start)
	attachPhases(out, tr, o)
	return out, nil
}

// exactResult is the Result of an exact baseline solve.
func exactResult(r xfloat.F) *Result {
	v := r.Float64()
	return &Result{Reliability: v, Log10: log10X(r), Lower: v, Upper: v, Exact: true}
}

// jobSeed derives a subproblem's RNG seed from its canonical signature.
// Seeding by signature — never by the subproblem's position within a query
// or its arrival order in a batch — is what makes deduplicated batch
// solving bit-identical to solving each query alone: the same subproblem
// draws the same completions no matter who asked for it.
//
// Consequence: if one query contains two byte-identical subproblems (e.g.
// isomorphic blocks with equal probabilities), they share an estimate, so
// the product uses R̂² whose expectation exceeds R² by Var(R̂) — a bias of
// order 1/s, far below the sampling error itself, and the unavoidable
// price of dedup-consistent seeding (a batch solves such twins once by
// design, which yields exactly the same correlation).
func jobSeed(seed uint64, sig preprocess.Signature) uint64 {
	return sampling.SeedStream(seed, sig.Hi, sig.Lo)
}

// jobConfig derives the S2BDD configuration of one decomposed subproblem.
// The seed derives from the job's signature and the S2BDD is worker-count
// independent, so a job's result depends neither on how the pipeline
// schedules it nor on how rounds split its sampling.
func jobConfig(exec sampling.Executor, j batch.Job, o options, exactOnly bool, workers int) core.Config {
	return core.Config{
		MaxWidth:                o.maxWidth,
		Samples:                 o.samples,
		Estimator:               o.estimatorKind(),
		Seed:                    jobSeed(o.seed, j.Sig),
		Order:                   order.Compute(j.G, o.ordering.strategy(), j.Ts[0]),
		ExactOnly:               exactOnly,
		Workers:                 workers,
		Exec:                    exec,
		DisableEarlyTermination: o.noEarlyTerm,
		DisableHeuristic:        o.noHeuristic,
		DisableStall:            o.noStall,
		DisableReduction:        o.noReduction,
	}
}

// solveJobs solves the given subproblems concurrently with bounded
// job-level parallelism, consulting (and filling) the session result cache
// when one is present. Results are returned by job index. Job slots ride
// the shared pool when exec is set (idle pool workers pick up whole jobs;
// within a job, strata are offered to the same pool), and a cancelled ctx
// stops job claiming and every job's inner schedule at the next boundary.
//
// Every job gets the full worker budget: worker-level oversubscription is
// harmless (slots beyond the pool's spare capacity simply aren't run), and
// once the small 2ECCs finish the dominant subproblem — typically holding
// most of the edges — keeps all cores instead of a split share.
//
// Every job is a resumable core.Sampler: a first pass constructs each
// missed job and records its strata, then the combined budget is spent in
// rounds (one by default, which draws every schedule whole). Each round
// allocates its slice of the remaining schedule where bound-gap × fan-in is
// largest (fanin counts the plans referencing each job), checks
// WithTargetWidth against the refreshed anytime intervals, and hands
// report, if non-nil, the per-job interval snapshot (it runs on the
// calling goroutine, so WithProgress sinks need no locking). A schedule
// folds bit-identically however rounds split it, so the rounds alone never
// change a result. Exact solves record no strata, so they have nothing to
// draw and leave the loop in its first round.
//
// Nothing is cached unless every job succeeded, so a cancelled request
// leaves no partial state behind; a retry re-solves deterministically.
// Only exhausted schedules are cached — the cache never observes how rounds
// split them; early-stopped results stay request-local.
func solveJobs(ctx context.Context, exec sampling.Executor, jobs []batch.Job, fanin []int, o options, exactOnly bool, cache *batch.Cache, report func(round int, final bool, bounds []jobBounds)) ([]core.Result, error) {
	results := make([]core.Result, len(jobs))
	bounds := make([]jobBounds, len(jobs))
	fp := o.fingerprint(exactOnly)
	miss := make([]int, 0, len(jobs))
	for i, j := range jobs {
		if r, ok := cache.Get(batch.Key{Sig: j.Sig, Fingerprint: fp}); ok {
			results[i] = r
			bounds[i] = boundsFromResult(r)
		} else {
			miss = append(miss, i)
		}
	}
	tr := telemetry.FromContext(ctx)
	tr.Annotate(telemetry.AnnotCacheHits, int64(len(jobs)-len(miss)))
	tr.Annotate(telemetry.AnnotCacheMisses, int64(len(miss)))

	samplers := make([]*core.Sampler, len(jobs))
	total := sampling.ClampWorkers(o.workers, 0)
	// Once any job fails (e.g. ErrNotExact from a tiny component under
	// exactOnly), ForEachCtx skips the rest rather than solving large
	// subproblems whose result will be discarded.
	if err := sampling.ForEachCtx(ctx, exec, len(miss), min(total, len(miss)), func(k int) error {
		i := miss[k]
		j := jobs[i]
		// The edge order is part of construction; jobConfig computes it.
		var t0 time.Time
		if tr != nil {
			t0 = time.Now()
		}
		cfg := jobConfig(exec, j, o, exactOnly, total)
		if tr != nil {
			tr.Extend(telemetry.PhaseConstruct, time.Since(t0))
		}
		var err error
		samplers[i], err = core.NewSampler(ctx, j.G, j.Ts, cfg)
		return err
	}); err != nil {
		return nil, err
	}
	refresh := func() {
		for _, i := range miss {
			lo, hi, est, drawn := samplers[i].Anytime()
			bounds[i] = jobBounds{lo: lo, hi: hi, est: est, drawn: drawn}
		}
	}
	refresh()

	sampled := false
	for _, i := range miss {
		sampled = sampled || samplers[i].Scheduled() > 0
	}
	round := 0
	rounds := max(o.rounds, 1)
	eps := o.targetWidth
	for round < rounds {
		round++
		// Active subproblems: schedule outstanding and interval still wider
		// than the target.
		active := make([]int, 0, len(miss))
		remaining := 0
		for _, i := range miss {
			smp := samplers[i]
			if smp.Remaining() == 0 || (eps > 0 && bounds[i].hi-bounds[i].lo <= eps) {
				continue
			}
			active = append(active, i)
			remaining += smp.Remaining()
		}
		if len(active) == 0 {
			break
		}
		// The final round drains every active schedule; earlier rounds
		// split an even slice of the remaining budget by bound-gap ×
		// fan-in.
		share := make([]int, len(active))
		if round == rounds {
			for k, i := range active {
				share[k] = samplers[i].Remaining()
			}
		} else {
			pool := (remaining + rounds - round) / (rounds - round + 1)
			weights := make([]float64, len(active))
			caps := make([]int, len(active))
			for k, i := range active {
				weights[k] = (bounds[i].hi - bounds[i].lo) * float64(max(fanin[i], 1))
				caps[k] = samplers[i].Remaining()
			}
			share = batch.Allocate(pool, weights, caps)
		}
		if err := sampling.ForEachCtx(ctx, exec, len(active), min(total, len(active)), func(k int) error {
			if share[k] == 0 {
				return nil
			}
			_, err := samplers[active[k]].Resume(ctx, share[k])
			return err
		}); err != nil {
			return nil, err
		}
		refresh()
		if report != nil {
			report(round, false, bounds)
		}
	}

	earlyStops := 0
	for _, i := range miss {
		smp := samplers[i]
		if smp.Remaining() > 0 {
			earlyStops++
		}
		var err error
		if results[i], err = smp.Result(); err != nil {
			return nil, err
		}
		bounds[i].est = results[i].Estimate
		bounds[i].drawn = results[i].SamplesUsed
	}
	tr.Annotate(telemetry.AnnotEarlyStops, int64(earlyStops))
	if sampled {
		tr.Annotate(telemetry.AnnotRounds, int64(round))
	}
	for _, i := range miss {
		if samplers[i].Remaining() == 0 {
			cache.Put(batch.Key{Sig: jobs[i].Sig, Fingerprint: fp}, jobs[i].Cover, results[i])
		}
	}
	if report != nil {
		report(round, true, bounds)
	}
	return results, nil
}

// combineResults folds per-subproblem results into the final answer:
// R = factor · Π R_i, with bounds and variance propagated. Results are
// combined in job order, so the product — like everything else governed by
// WithWorkers — is bit-identical for every worker count and for every way
// the subproblems were scheduled (sequentially, batched, or from cache).
// Duration is the caller's to set: each query's own plan duration plus the
// shared solve phase — never other queries' planning.
func combineResults(out *Result, results []core.Result, factor xfloat.F) *Result {
	estX := factor
	lowX := factor
	upX := factor
	allExact := true
	varianceTerms := make([]float64, 0, len(results))
	rhats := make([]float64, 0, len(results))

	for i := range results {
		res := results[i]
		estX = estX.Mul(res.EstimateX)
		lowX = lowX.Mul(res.LowerX)
		upX = upX.Mul(res.LowerX.Add(res.UnresolvedX).Clamp01())
		allExact = allExact && res.Exact
		out.SamplesReduced += res.SamplesReduced
		out.SamplesUsed += res.SamplesUsed
		varianceTerms = append(varianceTerms, res.Variance)
		rhats = append(rhats, res.Estimate)
	}

	out.Subproblems = len(results)
	out.Exact = allExact
	out.Reliability = estX.Clamp01().Float64()
	out.Log10 = log10X(estX)
	out.Lower = lowX.Clamp01().Float64()
	out.Upper = upX.Clamp01().Float64()
	if !allExact {
		out.Variance = productVariance(factor.Clamp01().Float64(), rhats, varianceTerms)
	}
	return out
}

// productVariance propagates per-factor variances through the product
// R̂ = pb·ΠR̂_i to first order: Var ≈ pb²·Σ_i Var_i·Π_{j≠i} R̂_j².
func productVariance(pb float64, rhats, vars []float64) float64 {
	total := 0.0
	for i := range rhats {
		term := vars[i]
		for j := range rhats {
			if j != i {
				term *= rhats[j] * rhats[j]
			}
		}
		total += term
	}
	return pb * pb * total
}

func log10OrInf(x float64) float64 {
	if x <= 0 {
		return math.Inf(-1)
	}
	return math.Log10(x)
}

func log10X(x xfloat.F) float64 {
	if x.Sign() <= 0 {
		return math.Inf(-1)
	}
	return x.Log10()
}
