// Package analysis implements the uncertain-graph analyses that the paper
// names as consumers of network reliability (Section 2): reliability search
// (Khan et al., EDBT 2014), its top-k form, and reliability-based
// clustering (Ceccarello et al., PVLDB 2017); s-t queries (Jin et al.,
// PVLDB 2011) are netrel.Reliability with two terminals.
//
// All three are classically driven by plain Monte Carlo estimates. Here one
// sampling pass screens every candidate on the worlds of netrel.MonteCarlo,
// so a vertex's estimate is MonteCarlo's for {source, v} with the same seed
// and sample count, bit for bit. The paper's point — "our approach can be
// used to improve their performances in terms of both accuracy and
// efficiency" — is realized by a hybrid scheme: Search re-decides the
// vertices inside the sampling noise band with the S2BDD estimator.
package analysis

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"netrel"
	"netrel/internal/core"
	"netrel/internal/ugraph"
)

// ErrBadThreshold reports a threshold outside (0,1).
var ErrBadThreshold = errors.New("analysis: threshold must be in (0,1)")

// Options configures the analyses.
type Options struct {
	// Samples is the shared sampling budget (default 2,000 worlds).
	Samples int
	// Seed drives all randomness.
	Seed uint64
	// Workers bounds sampling parallelism; ≤0 selects GOMAXPROCS.
	Workers int
	// Refine enables S2BDD re-evaluation of borderline decisions
	// (default off to keep the baseline behaviour available).
	Refine bool
	// RefineSamples is the budget per refined query (default 20,000).
	RefineSamples int
	// RefineBand is the half-width of the borderline band around the
	// threshold, in units of the sampling standard error (default 3).
	RefineBand float64
}

func (o Options) withDefaults() Options {
	if o.Samples <= 0 {
		o.Samples = 2_000
	}
	if o.RefineSamples <= 0 {
		o.RefineSamples = 20_000
	}
	if o.RefineBand <= 0 {
		o.RefineBand = 3
	}
	return o
}

// VertexReliability pairs a vertex with its estimated reliability to a
// query set.
type VertexReliability struct {
	Vertex      int
	Reliability float64
	// Refined reports the estimate came from the S2BDD pipeline rather
	// than the shared sampling pass.
	Refined bool
}

// reachFrequencies counts, for every vertex, the worlds out of
// opt.Samples in which it is connected to source. One pass serves every
// vertex: core.ReachCounts draws the worlds of netrel.MonteCarlo, so
// counts[v]/Samples is MonteCarlo's estimate for {source, v} with the same
// Seed and Samples, bit for bit, for any Workers value.
func reachFrequencies(g *ugraph.Graph, source int, opt Options) []int {
	// toUgraph's graph is valid, callers check the source, the budget is
	// positive and Background is never cancelled, so there is no error.
	counts, _ := core.ReachCounts(context.Background(), g, source,
		core.Config{Samples: opt.Samples, Seed: opt.Seed, Workers: opt.Workers})
	return counts
}

// toUgraph returns g in the form reachFrequencies draws on, edge for edge
// but for self-loops, which join nothing (MonteCarlo rejects them). Each
// analysis converts its graph once.
func toUgraph(g *netrel.Graph) *ugraph.Graph {
	ug := ugraph.New(g.N())
	for i := 0; i < g.M(); i++ {
		if e := g.Edge(i); e.U != e.V {
			_, _ = ug.AddEdge(e.U, e.V, e.P) // valid: g checked it
		}
	}
	return ug
}

// byReliability orders vr by reliability, highest first, ties by vertex.
func byReliability(vr []VertexReliability) {
	slices.SortFunc(vr, func(a, b VertexReliability) int {
		if c := cmp.Compare(b.Reliability, a.Reliability); c != 0 {
			return c
		}
		return cmp.Compare(a.Vertex, b.Vertex)
	})
}

// Search returns every vertex whose reliability of being connected to the
// source is at least threshold — the reliability-search query of Khan et
// al. With Refine enabled, vertices whose sampled estimate falls within
// RefineBand standard errors of the threshold are re-decided by the S2BDD
// pipeline, all of them as one batch on one session.
func Search(g *netrel.Graph, source int, threshold float64, opt Options) ([]VertexReliability, error) {
	if source < 0 || source >= g.N() {
		return nil, fmt.Errorf("analysis: source %d out of range", source)
	}
	if !(threshold > 0 && threshold < 1) {
		return nil, ErrBadThreshold
	}
	opt = opt.withDefaults()
	counts := reachFrequencies(toUgraph(g), source, opt)
	s := float64(opt.Samples)
	se := math.Sqrt(threshold*(1-threshold)/s) + 1e-12

	var out []VertexReliability
	var refine []netrel.Query
	for v, c := range counts {
		if v == source {
			continue
		}
		est := float64(c) / s
		if opt.Refine && math.Abs(est-threshold) < opt.RefineBand*se {
			refine = append(refine, netrel.Query{Terminals: []int{source, v}})
			continue
		}
		if est >= threshold {
			out = append(out, VertexReliability{Vertex: v, Reliability: est})
		}
	}
	if len(refine) > 0 {
		res, err := netrel.NewSession(g).BatchReliability(refine,
			netrel.WithSamples(opt.RefineSamples), netrel.WithSeed(opt.Seed), netrel.WithWorkers(opt.Workers))
		if err != nil {
			return nil, err
		}
		for i, r := range res {
			if r.Reliability >= threshold {
				out = append(out, VertexReliability{Vertex: refine[i].Terminals[1], Reliability: r.Reliability, Refined: true})
			}
		}
	}
	byReliability(out)
	return out, nil
}

// TopK returns the k vertices most reliably connected to the source,
// by shared-world sampling (ties broken by vertex id).
func TopK(g *netrel.Graph, source, k int, opt Options) ([]VertexReliability, error) {
	if source < 0 || source >= g.N() {
		return nil, fmt.Errorf("analysis: source %d out of range", source)
	}
	if k <= 0 {
		return nil, fmt.Errorf("analysis: k must be positive, got %d", k)
	}
	opt = opt.withDefaults()
	counts := reachFrequencies(toUgraph(g), source, opt)
	s := float64(opt.Samples)
	all := make([]VertexReliability, 0, g.N()-1)
	for v, c := range counts {
		if v == source {
			continue
		}
		all = append(all, VertexReliability{Vertex: v, Reliability: float64(c) / s})
	}
	byReliability(all)
	return all[:min(k, len(all))], nil
}
