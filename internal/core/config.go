// Package core implements the paper's primary contribution: the scalable
// and sampling BDD (S2BDD).
//
// The S2BDD streams the frontier-based BDD one layer at a time (only the
// current layer and the two sinks are materialized), detects sinks early
// (Lemmas 4.1/4.2), merges nodes by the Lemma 4.3 key, bounds the layer
// width by w — deleting low-priority nodes per the heuristic h(n) of
// Equation 10 — and recovers the deleted probability mass by stratified
// dynamic-programming sampling of the deleted nodes' completions
// (Section 4.3.3). The bounds pc ≤ R ≤ 1−pd shrink the sample budget from
// s to s′ per Theorem 1 (Monte Carlo) and Theorem 2 (Horvitz–Thompson).
// Built with no layers (NewRootSampler), the same sampler draws the plain
// possible-world MC and HT baselines of Section 3.2.2.
package core

import (
	"errors"

	"netrel/internal/estimator"
	"netrel/internal/sampling"
	"netrel/internal/xfloat"
)

// Default parameter values; the paper's experiments use w = 10⁴, s = 10⁴.
const (
	DefaultMaxWidth = 10_000
	// DefaultWorkFactor bounds construction effort at this multiple of the
	// sampling budget's own cost (s·|E| elementary operations): spending
	// more than that on bound-tightening can never pay for itself. This
	// realizes Algorithm 2's budget-driven early exit; construction effort
	// — and hence bound quality — scales with s, which is why the paper
	// observes the approach "works more effectively when the number of
	// samples is large" (Section 7.4). It and the stall rule race;
	// whichever fires first flushes.
	DefaultWorkFactor = 0.5
)

// The stall rule: construction flushes once the resolved mass has grown by
// less than stallThreshold over the last stallWindow layers.
const (
	stallWindow    = 16
	stallThreshold = 1e-3
)

// Config parameterizes an S2BDD run. The zero value selects all defaults
// except Samples, which must be set (or ExactOnly used).
type Config struct {
	// MaxWidth is the maximum S2BDD layer width w; ≤0 selects
	// DefaultMaxWidth.
	MaxWidth int
	// Samples is the requested sample budget s before the Theorem 1
	// reduction. Zero runs in bounds-only mode (the estimate is then the
	// midpoint of [pc, 1−pd] unless the run is exact).
	Samples int
	// Estimator selects Monte Carlo (default) or Horvitz–Thompson for the
	// stratified completion sampling.
	Estimator estimator.Kind
	// Seed drives all randomness; runs are reproducible per seed.
	Seed uint64
	// Order is the edge processing order (a permutation of edge indices);
	// nil keeps the natural order. Callers normally pass a BFS order.
	Order []int
	// ExactOnly makes the run fail with ErrNotExact instead of sampling if
	// any node would be deleted or the stall rule would fire.
	ExactOnly bool
	// Workers bounds the goroutines used for layer expansion and for the
	// stratified completion sampling; ≤0 selects GOMAXPROCS. Both phases
	// are chunked by the workload alone — expansion by layer width, sampling
	// by (Seed, layer, stratum, chunk) — never by worker, so results are
	// bit-identical for every worker count.
	Workers int
	// Exec optionally lends shared-pool goroutines to both phases (see
	// sampling.ForEachChunkCtx); nil spawns goroutines per call.
	// Results do not depend on it.
	Exec sampling.Executor
	// NodeBudget caps the nodes created across all layers; ≤0 means no
	// cap. It is checked once per layer, after the layer is built, and a
	// run over it fails with ErrNodeBudget naming that layer: the exact
	// BDD baseline's deterministic stand-in for running out of memory.
	NodeBudget int

	// Ablation switches (all default to the paper's configuration).

	// DisableEarlyTermination turns off Lemma 4.1/4.2 early sink detection,
	// reverting to the classic retire-time detection.
	DisableEarlyTermination bool
	// DisableHeuristic deletes overflow nodes in arrival order rather than
	// keeping the highest h(n) nodes.
	DisableHeuristic bool
	// DisableStall turns off the bound-stall early exit, forcing
	// construction through all layers.
	DisableStall bool
	// DisableReduction ignores Theorem 1 and keeps s′ = s.
	DisableReduction bool
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.MaxWidth <= 0 {
		out.MaxWidth = DefaultMaxWidth
	}
	return out
}

// ErrNotExact reports that an ExactOnly run would have required sampling.
var ErrNotExact = errors.New("core: graph too large for exact S2BDD within MaxWidth")

// ErrNodeBudget reports that a run created more than Config.NodeBudget
// nodes: the paper's "DNF (did not finish: out of memory)".
var ErrNodeBudget = errors.New("core: node budget exceeded (DNF)")

// Result reports the estimate, the bounds, and run statistics.
type Result struct {
	// Estimate is R̂[G,T].
	Estimate float64
	// Lower and Upper are the bounds pc and 1−pd as float64 (they may
	// underflow to 0/round to 1 for extreme graphs; LowerX/UnresolvedX
	// retain full range).
	Lower, Upper float64
	// LowerX is pc in extended range; UnresolvedX is the probability mass
	// never resolved into a sink (Upper = Lower + Unresolved).
	LowerX, UnresolvedX xfloat.F
	// EstimateX is the extended-range estimate (pc + sampled mass
	// contribution), exact-precision for tiny reliabilities.
	EstimateX xfloat.F
	// Exact reports that no sampling occurred: Estimate is the exact
	// reliability.
	Exact bool
	// Variance is the stratified variance bound of Equation 3.
	Variance float64

	// SamplesRequested is s; SamplesReduced the final Theorem 1 s′;
	// SamplesReducedRaw the unclamped theorem value (Figure 4b);
	// SamplesUsed the completions actually drawn.
	SamplesRequested  int
	SamplesReduced    int
	SamplesReducedRaw int
	SamplesUsed       int

	// LayersProcessed counts edge layers constructed; Flushed reports the
	// stall rule fired; PeakWidth is the widest layer.
	LayersProcessed int
	Flushed         bool
	PeakWidth       int

	// Node accounting.
	NodesCreated int64
	NodesMerged  int64
	NodesDeleted int64

	// Strata is the number of sampling strata formed; StrataSkippedMass is
	// the (negligible) probability mass of strata whose expected allocation
	// underflowed float64 and were skipped.
	Strata            int
	StrataSkippedMass float64

	// Flips counts the coins the completion draws evaluated: every
	// remaining one for a Horvitz–Thompson draw, the ones its search
	// reaches for a Monte Carlo draw. Like the answer, it is the same for
	// any worker count and any split of the draws into Resume calls.
	Flips int64
}
