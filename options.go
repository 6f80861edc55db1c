package netrel

import (
	"fmt"
	"math"

	"netrel/internal/estimator"
	"netrel/internal/order"
	"netrel/internal/sampling"
)

// Estimator selects the sampling estimator.
type Estimator int

const (
	// EstimatorMonteCarlo is the sample-mean estimator (the default).
	EstimatorMonteCarlo Estimator = iota
	// EstimatorHorvitzThompson weights samples by inverse inclusion
	// probability; slightly better for sampling without replacement.
	EstimatorHorvitzThompson
)

// Ordering selects the edge processing order used by the S2BDD and the BDD
// baseline.
type Ordering int

const (
	// OrderBFS orders edges along a breadth-first traversal (default; keeps
	// the BDD frontier small on road-like graphs).
	OrderBFS Ordering = iota
	// OrderNatural keeps input order.
	OrderNatural
	// OrderDFS uses a depth-first traversal.
	OrderDFS
	// OrderDegree visits high-degree vertices first.
	OrderDegree
	// OrderRCM uses a reverse Cuthill–McKee vertex ordering (bandwidth
	// minimization), often the narrowest frontier on mesh-like graphs.
	OrderRCM
)

func (o Ordering) strategy() order.Strategy {
	switch o {
	case OrderNatural:
		return order.Natural
	case OrderDFS:
		return order.DFS
	case OrderDegree:
		return order.Degree
	case OrderRCM:
		return order.RCM
	default:
		return order.BFS
	}
}

// options collects the configuration of a reliability computation.
type options struct {
	samples     int
	maxWidth    int
	est         Estimator
	seed        uint64
	workers     int
	ordering    Ordering
	noExtension bool
	noEarlyTerm bool
	noHeuristic bool
	noStall     bool
	noReduction bool
	bddBudget   int
	trace       bool
	rounds      int
	targetWidth float64
	progress    func(Progress)
}

func defaultOptions() options {
	return options{
		samples:   10_000,
		maxWidth:  10_000,
		bddBudget: 20_000_000,
	}
}

// Option configures Reliability, Exact, MonteCarlo and BDDExact.
type Option func(*options) error

// WithSamples sets the sample budget s (default 10,000). The S2BDD reduces
// it to s′ per Theorem 1.
func WithSamples(s int) Option {
	return func(o *options) error {
		if s < 0 {
			return fmt.Errorf("netrel: negative sample count %d", s)
		}
		o.samples = s
		return nil
	}
}

// WithMaxWidth sets the maximum S2BDD layer width w (default 10,000).
func WithMaxWidth(w int) Option {
	return func(o *options) error {
		if w <= 0 {
			return fmt.Errorf("netrel: max width must be positive, got %d", w)
		}
		o.maxWidth = w
		return nil
	}
}

// WithEstimator selects the estimator (default Monte Carlo).
func WithEstimator(e Estimator) Option {
	return func(o *options) error {
		if e != EstimatorMonteCarlo && e != EstimatorHorvitzThompson {
			return fmt.Errorf("netrel: unknown estimator %d", e)
		}
		o.est = e
		return nil
	}
}

// WithSeed fixes the random stream; identical inputs and options then yield
// identical results.
func WithSeed(seed uint64) Option {
	return func(o *options) error {
		o.seed = seed
		return nil
	}
}

// WithWorkers sets the parallelism degree for every entry point — batch
// planning, the decomposed pipeline jobs, the S2BDD layer expansion and
// stratified-sampling phases of Reliability and Exact, the layer expansion
// of BDDExact, and the Monte Carlo baseline (default GOMAXPROCS; values
// ≤ 0 also select GOMAXPROCS).
//
// Determinism guarantee: all parallel work is scheduled as fixed-size
// chunks whose random streams derive from (seed, layer, stratum, chunk)
// and whose results fold in chunk order, so a fixed WithSeed yields
// bit-identical results for every worker count — workers only change how
// fast the answer arrives, never the answer.
func WithWorkers(n int) Option {
	return func(o *options) error {
		o.workers = n
		return nil
	}
}

// WithTrace attaches a per-request phase trace to the computation:
// Result.Phases reports wall-clock spans for each pipeline phase
// (admission wait, conditioning, index build, planning, S2BDD
// construction, stratified sampling, combining) plus cache-hit and batch
// dedup annotations. Tracing is observation-only — it never touches a
// random stream or a chunk schedule, so results are bit-identical with it
// on or off, and like WithWorkers it is excluded from the result
// cache fingerprint. Overhead is a handful of clock reads per request.
//
// Callers that already carry a telemetry trace in ctx (netreld does, for
// its metrics) get spans recorded either way; WithTrace only controls
// whether Result.Phases is populated.
func WithTrace() Option {
	return func(o *options) error {
		o.trace = true
		return nil
	}
}

// WithOrdering selects the edge processing order (default BFS).
func WithOrdering(ord Ordering) Option {
	return func(o *options) error {
		if ord < OrderBFS || ord > OrderRCM {
			return fmt.Errorf("netrel: unknown ordering %d", ord)
		}
		o.ordering = ord
		return nil
	}
}

// WithoutExtension disables the 2-edge-connected-component preprocessing
// (prune/decompose/transform); the paper's "Pro(MC) w/o ext" configuration.
func WithoutExtension() Option {
	return func(o *options) error {
		o.noExtension = true
		return nil
	}
}

// WithoutEarlyTermination, WithoutHeuristic, WithoutStall and
// WithoutSampleReduction disable individual S2BDD mechanisms for ablation
// studies; production callers should not need them.
func WithoutEarlyTermination() Option {
	return func(o *options) error { o.noEarlyTerm = true; return nil }
}

// WithoutHeuristic deletes overflow nodes in arrival order instead of by
// priority h(n).
func WithoutHeuristic() Option {
	return func(o *options) error { o.noHeuristic = true; return nil }
}

// WithoutStall forces construction through every layer.
func WithoutStall() Option {
	return func(o *options) error { o.noStall = true; return nil }
}

// WithoutSampleReduction ignores Theorem 1 and always draws s samples.
func WithoutSampleReduction() Option {
	return func(o *options) error { o.noReduction = true; return nil }
}

// WithBDDNodeBudget caps the exact BDD baseline's total node count, after
// which it fails with a memory-limit error (the paper's DNF). The default,
// 20,000,000 nodes, is a few GB of frontier states, mirroring the paper's
// observation that exact BDDs handle only graphs of 100–200 edges.
func WithBDDNodeBudget(nodes int) Option {
	return func(o *options) error {
		if nodes <= 0 {
			return fmt.Errorf("netrel: node budget must be positive")
		}
		o.bddBudget = nodes
		return nil
	}
}

// WithSampleRounds splits the sampling budget into n adaptive rounds
// (default 1). With one round the solver constructs every subproblem, then
// draws each one's full schedule in a single round. With n > 1, each round
// spends a slice of the remaining budget where bound-gap × query-fan-in is
// largest (see batch.Allocate), re-reading the anytime intervals between
// rounds; round boundaries are also where WithTargetWidth is checked and
// WithProgress fires. Because a schedule folds bit-identically however the
// rounds split it, the round count alone never changes a result — only
// WithTargetWidth can, by stopping early. Ignored by the exact solvers.
func WithSampleRounds(n int) Option {
	return func(o *options) error {
		if n < 1 {
			return fmt.Errorf("netrel: sample rounds must be at least 1, got %d", n)
		}
		o.rounds = n
		return nil
	}
}

// WithTargetWidth stops a subproblem's sampling as soon as its anytime
// confidence interval is no wider than eps (checked at round boundaries;
// pair it with WithSampleRounds to control the check frequency). The
// default eps = 0 never triggers, so every schedule is drawn in full.
// Early-stopped results report the anytime estimate and the samples
// actually drawn, and are not admitted to the session result cache (only
// schedule-exhausted results are, since those are the ones bit-identical
// to what any other query would compute). Ignored by the exact solvers.
func WithTargetWidth(eps float64) Option {
	return func(o *options) error {
		if eps < 0 || math.IsNaN(eps) {
			return fmt.Errorf("netrel: target width must be non-negative, got %v", eps)
		}
		o.targetWidth = eps
		return nil
	}
}

// WithProgress streams anytime bounds: fn is invoked on the solving
// goroutine after every sampling round, once per query, with monotonically
// tightening [Lower, Upper] bounds, and a final sweep with Done set. fn
// must not block for long (it stalls the solve) and must not call back into
// the session. Observation-only: like WithTrace it never changes results,
// and it is excluded from the cache fingerprint. Ignored by the exact
// solvers.
func WithProgress(fn func(Progress)) Option {
	return func(o *options) error {
		o.progress = fn
		return nil
	}
}

func buildOptions(opts []Option) (options, error) {
	o := defaultOptions()
	for _, fn := range opts {
		if err := fn(&o); err != nil {
			return o, err
		}
	}
	return o, nil
}

// fingerprint condenses every option that can change a subproblem's solved
// result into one cache-key component. WithWorkers is deliberately
// excluded — the parallel schedules are worker-count independent, so
// results are too — as are WithTrace (observation-only: a traced query must
// hit the same cache entries an untraced one fills) and the BDD baseline's
// node budget, which the pipeline never reads. The anytime knobs
// (WithSampleRounds, WithTargetWidth, WithProgress) are excluded too: only
// schedule-exhausted solves are admitted to the cache, and those are
// bit-identical however rounds split the schedule — so a multi-round query
// may both read and warm the same entries a one-round one does.
// exactOnly distinguishes Exact from Reliability runs over the same option
// set.
func (o *options) fingerprint(exactOnly bool) uint64 {
	b2u := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	return sampling.SeedStream(0x6e657472656c_f9, // "netrel" fingerprint domain
		uint64(o.samples),
		uint64(o.maxWidth),
		uint64(o.est),
		o.seed,
		uint64(o.ordering),
		b2u(o.noExtension),
		b2u(o.noEarlyTerm),
		b2u(o.noHeuristic),
		b2u(o.noStall),
		b2u(o.noReduction),
		b2u(exactOnly),
	)
}

func (o *options) estimatorKind() estimator.Kind {
	if o.est == EstimatorHorvitzThompson {
		return estimator.HorvitzThompson
	}
	return estimator.MonteCarlo
}
