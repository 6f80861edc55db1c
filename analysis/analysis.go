// Package analysis implements the uncertain-graph analyses that the paper
// names as consumers of network reliability (Section 2): reliability search
// (Khan et al., EDBT 2014), s-t reliability queries (Jin et al., PVLDB
// 2011), and reliability-based clustering (Ceccarello et al., PVLDB 2017).
//
// All three are classically driven by plain Monte Carlo estimates. The
// paper's point — "our approach can be used to improve their performances
// in terms of both accuracy and efficiency" — is realized here by a hybrid
// scheme: a shared sampling pass screens candidates cheaply, and decisions
// that fall inside the sampling noise band are re-evaluated with the
// bound-driven S2BDD estimator.
package analysis

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

	"netrel"
	"netrel/internal/sampling"
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

// reachFrequencies samples possible worlds and counts, for every vertex,
// how often it is connected to source (single-source). Worlds are shared
// across all vertices — the standard trick that makes whole-graph
// reliability search tractable. Like every sampler in the module, the
// budget is cut into fixed chunks of sampling.ChunkSize worlds, each drawn
// from its own sampling.SeedStream(Seed, chunk), so the counts are the
// same for any Workers value.
func reachFrequencies(g *netrel.Graph, source int, opt Options) []int {
	n := g.N()
	edges := g.Edges()
	adj := make([][]int32, n)
	for i, e := range edges {
		adj[e.U] = append(adj[e.U], int32(i))
		adj[e.V] = append(adj[e.V], int32(i))
	}
	chunks := (opt.Samples + sampling.ChunkSize - 1) / sampling.ChunkSize
	var slots [][]int
	// A Background context is never cancelled, so there is no error.
	_ = sampling.ForEachChunkCtx(context.Background(), nil, chunks, opt.Workers, func() func(int) {
		local := make([]int, n)
		slots = append(slots, local)
		parent := make([]int32, n)
		stack := make([]int32, 0, 64)
		exists := make([]bool, len(edges))
		return func(c int) {
			rng := rand.New(rand.NewPCG(sampling.SeedStream(opt.Seed, uint64(c)), 0x2545f4914f6cdd1d))
			runs := min(sampling.ChunkSize, opt.Samples-c*sampling.ChunkSize)
			for r := 0; r < runs; r++ {
				for i, e := range edges {
					exists[i] = rng.Float64() < e.P
				}
				// DFS from source over existent edges.
				for i := range parent {
					parent[i] = -1
				}
				parent[source] = int32(source)
				stack = append(stack[:0], int32(source))
				local[source]++
				for len(stack) > 0 {
					v := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					for _, ei := range adj[v] {
						if !exists[ei] {
							continue
						}
						e := edges[ei]
						o := e.U
						if o == int(v) {
							o = e.V
						}
						if parent[o] == -1 {
							parent[o] = v
							local[o]++
							stack = append(stack, int32(o))
						}
					}
				}
			}
		}
	})
	counts := make([]int, n)
	for _, local := range slots {
		for v, c := range local {
			counts[v] += c
		}
	}
	return counts
}

// Search returns every vertex whose reliability of being connected to the
// source is at least threshold — the reliability-search query of Khan et
// al. With Refine enabled, vertices whose sampled estimate falls within
// RefineBand standard errors of the threshold are re-decided by the S2BDD
// pipeline.
func Search(g *netrel.Graph, source int, threshold float64, opt Options) ([]VertexReliability, error) {
	if source < 0 || source >= g.N() {
		return nil, fmt.Errorf("analysis: source %d out of range", source)
	}
	if !(threshold > 0 && threshold < 1) {
		return nil, ErrBadThreshold
	}
	opt = opt.withDefaults()
	counts := reachFrequencies(g, source, opt)
	s := float64(opt.Samples)
	se := math.Sqrt(threshold*(1-threshold)/s) + 1e-12

	var out []VertexReliability
	for v, c := range counts {
		if v == source {
			continue
		}
		est := float64(c) / s
		borderline := math.Abs(est-threshold) < opt.RefineBand*se
		if opt.Refine && borderline {
			res, err := netrel.Reliability(g, []int{source, v},
				netrel.WithSamples(opt.RefineSamples),
				netrel.WithSeed(opt.Seed^uint64(v)))
			if err != nil {
				return nil, err
			}
			if res.Reliability >= threshold {
				out = append(out, VertexReliability{Vertex: v, Reliability: res.Reliability, Refined: true})
			}
			continue
		}
		if est >= threshold {
			out = append(out, VertexReliability{Vertex: v, Reliability: est})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Reliability != out[j].Reliability {
			return out[i].Reliability > out[j].Reliability
		}
		return out[i].Vertex < out[j].Vertex
	})
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
	counts := reachFrequencies(g, source, opt)
	s := float64(opt.Samples)
	all := make([]VertexReliability, 0, g.N()-1)
	for v, c := range counts {
		if v == source {
			continue
		}
		all = append(all, VertexReliability{Vertex: v, Reliability: float64(c) / s})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Reliability != all[j].Reliability {
			return all[i].Reliability > all[j].Reliability
		}
		return all[i].Vertex < all[j].Vertex
	})
	if k > len(all) {
		k = len(all)
	}
	return all[:k], nil
}

// STReliability is the two-terminal (s-t) reliability — the reachability
// probability of Jin et al. — computed with the paper's full pipeline.
func STReliability(g *netrel.Graph, s, t int, opts ...netrel.Option) (*netrel.Result, error) {
	return netrel.Reliability(g, []int{s, t}, opts...)
}
