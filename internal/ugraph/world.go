package ugraph

import (
	"math/rand/v2"

	"netrel/internal/unionfind"
	"netrel/internal/xfloat"
)

// WorldSampler draws possible worlds of a graph and answers terminal
// connectivity, reusing all buffers across draws. It is not safe for
// concurrent use; create one per goroutine.
type WorldSampler struct {
	g     *Graph
	ts    Terminals
	coins []Coin // g's edges in index order
	rng   *rand.PCG
	uf    *unionfind.Arena
}

// worldStream is the PCG stream constant of every WorldSampler.
const worldStream = 0x9e3779b97f4a7c15

// NewWorldSampler returns a sampler over g for terminal set ts, seeded
// deterministically from seed.
func NewWorldSampler(g *Graph, ts Terminals, seed uint64) *WorldSampler {
	return &WorldSampler{
		g:     g,
		ts:    ts,
		coins: Coins(g, nil),
		rng:   rand.NewPCG(seed, worldStream),
		uf:    unionfind.NewArena(g.N()),
	}
}

// Reseed restarts the sampler's random stream from seed, retaining the
// union-find arena. Chunked parallel drivers reseed one sampler per work
// unit so draws depend only on the unit's seed, not on which goroutine ran
// previous units.
func (s *WorldSampler) Reseed(seed uint64) {
	s.rng.Seed(seed, worldStream)
}

// SampleConnected draws one possible world Gp according to the edge
// probabilities and reports whether all terminals are connected in it.
// The draw and the connectivity check are fused: an edge flip immediately
// feeds the union-find, so no per-world edge mask is materialized.
func (s *WorldSampler) SampleConnected() bool {
	ok, _, _ := s.sample(false)
	return ok
}

// SampleConnectedWithProb draws one possible world and additionally returns
// its existence probability Pr[Gp] and a 64-bit fingerprint of the world's
// edge mask. The Horvitz–Thompson estimator needs the probability for the
// inverse-inclusion weighting and the fingerprint to deduplicate worlds
// (its sum ranges over distinct sampled units).
func (s *WorldSampler) SampleConnectedWithProb() (connected bool, pr xfloat.F, fingerprint uint64) {
	return s.sample(true)
}

// sample draws one world, one variate per edge in index order; needPr adds
// the world probability.
func (s *WorldSampler) sample(needPr bool) (connected bool, pr xfloat.F, fp uint64) {
	s.uf.Reset()
	pr = xfloat.One
	const (
		fnvOffset = 0xcbf29ce484222325
		fnvPrime  = 0x100000001b3
	)
	fp = uint64(fnvOffset)
	edges := s.g.edges[:len(s.coins)]
	for i := range s.coins {
		c := &s.coins[i]
		fp *= fnvPrime
		if c.Heads(s.rng.Uint64()) {
			fp ^= 1
			if needPr {
				pr = pr.MulFloat64(edges[i].P)
			}
			s.uf.Union(int(c.U), int(c.V))
		} else if needPr {
			pr = pr.MulFloat64(1 - edges[i].P)
		}
	}
	return s.terminalsJoined(), pr, fp
}

func (s *WorldSampler) terminalsJoined() bool {
	if len(s.ts) <= 1 {
		return true
	}
	r0 := s.uf.Find(s.ts[0])
	for _, t := range s.ts[1:] {
		if s.uf.Find(t) != r0 {
			return false
		}
	}
	return true
}

// TerminalsConnected reports whether all terminals are connected using only
// the edges marked existent in the mask. Used by tests and the exhaustive
// enumerator.
func TerminalsConnected(g *Graph, ts Terminals, exists []bool) bool {
	if len(ts) <= 1 {
		return true
	}
	uf := unionfind.New(g.N())
	for i, e := range g.edges {
		if exists[i] {
			uf.Union(e.U, e.V)
		}
	}
	r0 := uf.Find(ts[0])
	for _, t := range ts[1:] {
		if uf.Find(t) != r0 {
			return false
		}
	}
	return true
}

// EnumerateWorlds calls fn for every possible world of g with its existence
// mask and probability. The mask is reused between calls; fn must not retain
// it. Panics if the graph has more than 30 edges — enumeration is strictly a
// tiny-graph ground-truth tool (2^30 worlds is already ~10^9).
func EnumerateWorlds(g *Graph, fn func(exists []bool, pr xfloat.F)) {
	m := g.M()
	if m > 30 {
		panic("ugraph: EnumerateWorlds on graph with more than 30 edges")
	}
	exists := make([]bool, m)
	for bits := uint64(0); bits < 1<<uint(m); bits++ {
		pr := xfloat.One
		for i := 0; i < m; i++ {
			exists[i] = bits&(1<<uint(i)) != 0
			if exists[i] {
				pr = pr.MulFloat64(g.edges[i].P)
			} else {
				pr = pr.MulFloat64(1 - g.edges[i].P)
			}
		}
		fn(exists, pr)
	}
}
