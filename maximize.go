// Greedy reliability maximization: which edges should be upgraded to make
// the terminals most reliable? (Ke, Khan, Bonchi, "Reliability
// Maximization in Uncertain Graphs" — served here as repeated what-if
// probes through the deduplicated batch path.)
package netrel

import (
	"context"
	"errors"
	"fmt"

	"netrel/internal/preprocess"
)

// UpgradeBudget configures MaximizeReliability: how many edges may be
// upgraded, to what probability, and from which candidate pool.
type UpgradeBudget struct {
	// MaxEdges is the number of upgrades to select (the greedy rounds).
	MaxEdges int
	// NewProb is the probability an upgraded edge is raised to, in (0,1].
	// Edges already at or above it are not candidates.
	NewProb float64
	// Candidates optionally restricts the pool to these edge indices;
	// empty means every edge. Indices must be in range.
	Candidates []int
}

// UpgradeStep is one selected upgrade: the chosen edge and the query
// result with every upgrade so far (this one included) applied.
type UpgradeStep struct {
	Edge   int
	Result *Result
}

// UpgradePlan is MaximizeReliability's outcome: the greedy upgrade
// sequence, the result before any upgrade, and the result after all of
// them (Base when no step was possible).
type UpgradePlan struct {
	Base  *Result
	Steps []UpgradeStep
	Final *Result
}

// ErrUpgradeBudget reports an invalid UpgradeBudget.
var ErrUpgradeBudget = errors.New("netrel: invalid upgrade budget")

// MaximizeReliability greedily selects up to budget.MaxEdges edge
// upgrades maximizing spec's reliability. See MaximizeReliabilityContext.
func (s *Session) MaximizeReliability(spec QuerySpec, budget UpgradeBudget, opts ...Option) (*UpgradePlan, error) {
	return s.MaximizeReliabilityContext(context.Background(), spec, budget, opts...)
}

// MaximizeReliabilityContext runs greedy reliability maximization on the
// session's current snapshot (which it never modifies): each round scores
// every remaining candidate upgrade as one cheap what-if — a
// probability-only delta whose plans share the base 2ECC index — and all
// candidates of a round are solved as one deduplicated batch against the
// shared result cache, so subproblems untouched by any candidate are
// solved once (or hit the cache outright) and only the components the
// candidates live in are re-solved per candidate. The round's winner is
// the candidate with the highest Log10, ties broken by lowest edge index,
// so the plan is deterministic per seed and bit-identical for any worker
// count. Each round is one admission unit with two-phase batch pricing.
func (s *Session) MaximizeReliabilityContext(ctx context.Context, spec QuerySpec, budget UpgradeBudget, opts ...Option) (*UpgradePlan, error) {
	o, err := buildOptions(opts)
	if err != nil {
		return nil, err
	}
	if budget.MaxEdges < 1 {
		return nil, fmt.Errorf("%w: MaxEdges %d", ErrUpgradeBudget, budget.MaxEdges)
	}
	if !(budget.NewProb > 0 && budget.NewProb <= 1) {
		return nil, fmt.Errorf("%w: NewProb %v outside (0,1]", ErrUpgradeBudget, budget.NewProb)
	}
	st := s.state.Load()
	g := st.g
	pool := budget.Candidates
	if len(pool) == 0 {
		pool = make([]int, g.M())
		for i := range pool {
			pool[i] = i
		}
	} else {
		for _, e := range pool {
			if e < 0 || e >= g.M() {
				return nil, fmt.Errorf("%w: candidate edge %d with m=%d", ErrUpgradeBudget, e, g.M())
			}
		}
	}
	ctx, _ = ensureTrace(ctx, o)

	base, err := first(s.query(ctx, st, []Query{spec}, opts, solveCall{}))
	if err != nil {
		return nil, err
	}
	plan := &UpgradePlan{Base: base, Final: base}

	chosen := make(map[int]bool, budget.MaxEdges)
	upgrades := make([]EdgeProbUpdate, 0, budget.MaxEdges)
	for len(plan.Steps) < budget.MaxEdges {
		var cands []int
		for _, e := range pool {
			if !chosen[e] && g.Edge(e).P < budget.NewProb {
				cands = append(cands, e)
			}
		}
		if len(cands) == 0 {
			break
		}
		results, err := s.scoreUpgrades(ctx, st, spec, o, upgrades, cands, budget.NewProb)
		if err != nil {
			return nil, err
		}
		best := 0
		for i := 1; i < len(cands); i++ {
			if results[i].Log10 > results[best].Log10 {
				best = i
			}
		}
		chosen[cands[best]] = true
		upgrades = append(upgrades, EdgeProbUpdate{Edge: cands[best], P: budget.NewProb})
		plan.Steps = append(plan.Steps, UpgradeStep{Edge: cands[best], Result: results[best]})
		plan.Final = results[best]
	}
	return plan, nil
}

// scoreUpgrades answers spec once per candidate, each on the accepted
// upgrades plus that candidate: one probability-only variant of st's graph
// per candidate, planned against st's index and cover tags (a
// probability-only delta keeps the component structure), and all of them
// solved as one deduplicated batch that PlanStats does not count.
func (s *Session) scoreUpgrades(ctx context.Context, st *graphState, spec QuerySpec, o options, upgrades []EdgeProbUpdate, cands []int, newProb float64) ([]*Result, error) {
	specs := make([]*resolvedSpec, len(cands))
	for i, cand := range cands {
		delta := GraphDelta{SetProb: append(append([]EdgeProbUpdate(nil), upgrades...), EdgeProbUpdate{Edge: cand, P: newProb})}
		vg, err := st.g.Apply(delta)
		if err != nil {
			return nil, err
		}
		rs, err := resolveSpec(vg, spec)
		if err != nil {
			return nil, err
		}
		// Every candidate asks the same spec of a different graph, so none
		// may share another's plan: key plan dedup by candidate.
		rs.planSig = preprocess.Signature{Lo: uint64(i)}
		specs[i] = rs
	}
	return s.solve(ctx, st, specs, o, solveCall{})
}
