package analysis

import (
	"fmt"
	"math/rand/v2"
	"slices"

	"netrel"
)

// Clustering is the result of reliability-based k-center clustering.
type Clustering struct {
	// Centers are the chosen center vertices, in selection order.
	Centers []int
	// Assign maps every vertex to the index (into Centers) of its most
	// reliably connected center.
	Assign []int
	// Reliability holds each vertex's reliability to its assigned center.
	Reliability []float64
	// MinReliability is the clustering's bottleneck: the smallest assigned
	// reliability (the quantity the k-center objective maximizes).
	MinReliability float64
}

// Cluster partitions the vertices into k clusters around greedily chosen
// centers, using connection reliability as similarity — the k-center
// formulation over uncertain graphs of Ceccarello et al. (PVLDB 2017).
// Center selection is the farthest-point heuristic: each new center is the
// vertex with the lowest reliability to every existing center.
// Reliabilities come from shared-world sampling, one pass per center.
func Cluster(g *netrel.Graph, k int, opt Options) (*Clustering, error) {
	n := g.N()
	if k <= 0 || k > n {
		return nil, fmt.Errorf("analysis: cannot pick %d centers from %d vertices", k, n)
	}
	opt = opt.withDefaults()
	ug := toUgraph(g)
	rng := rand.New(rand.NewPCG(opt.Seed, 0xc1057e41))

	cl := &Clustering{
		Assign:      make([]int, n),
		Reliability: make([]float64, n),
	}
	center := rng.IntN(n)
	for c := 0; c < k; c++ {
		if c > 0 {
			// Farthest-point: the vertex least reliably covered so far.
			// k ≤ n leaves one that is not a center yet.
			worst := 2.0
			for v := 0; v < n; v++ {
				if cl.Reliability[v] < worst && !slices.Contains(cl.Centers, v) {
					worst, center = cl.Reliability[v], v
				}
			}
		}
		cl.Centers = append(cl.Centers, center)
		counts := reachFrequencies(ug, center, opt)
		s := float64(opt.Samples)
		for v := 0; v < n; v++ {
			r := float64(counts[v]) / s
			if r > cl.Reliability[v] {
				cl.Assign[v] = c
				cl.Reliability[v] = r
			}
		}
	}
	cl.MinReliability = slices.Min(cl.Reliability)
	return cl, nil
}

// Sizes returns the vertex count of each cluster, indexed like Centers.
func (c *Clustering) Sizes() []int {
	sizes := make([]int, len(c.Centers))
	for _, a := range c.Assign {
		sizes[a]++
	}
	return sizes
}

// Members returns the vertices of cluster i in ascending order.
func (c *Clustering) Members(i int) []int {
	var out []int
	for v, a := range c.Assign {
		if a == i {
			out = append(out, v)
		}
	}
	return out
}
