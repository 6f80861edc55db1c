package ugraph

import (
	"netrel/internal/unionfind"
	"netrel/internal/xfloat"
)

// TerminalsConnected reports whether all terminals are connected using only
// the edges marked existent in the mask. Used by tests and the exhaustive
// enumerator.
func TerminalsConnected(g *Graph, ts Terminals, exists []bool) bool {
	if len(ts) <= 1 {
		return true
	}
	uf := unionfind.NewArena(g.N())
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
