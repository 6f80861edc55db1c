// Package order provides edge-processing orders for frontier-based BDD
// construction. The frontier method's node count is governed by the number
// of "live" vertices (those with both processed and unprocessed incident
// edges) at each step, so a good order retires vertices as quickly as
// possible. The paper only says edges are processed "in a predefined order";
// BFS ordering is the de-facto standard in the frontier-search literature
// and is our default. The alternatives exist for ablation benchmarks.
package order

import (
	"fmt"
	"sort"

	"netrel/internal/ugraph"
)

// Strategy selects an edge ordering algorithm.
type Strategy int

const (
	// Natural keeps the input edge order.
	Natural Strategy = iota
	// BFS orders vertices by breadth-first discovery from a start vertex
	// and edges by the later-discovered endpoint, grouping all edges of a
	// vertex together so it retires quickly. Default.
	BFS
	// DFS is like BFS with depth-first discovery.
	DFS
	// Degree orders vertices by descending degree, then applies the same
	// grouping rule.
	Degree
	// RCM orders vertices by reverse Cuthill–McKee (bandwidth
	// minimization), a classic choice for keeping frontier-like widths
	// small on mesh-like graphs.
	RCM
)

// String implements fmt.Stringer for flag/CLI display.
func (s Strategy) String() string {
	switch s {
	case Natural:
		return "natural"
	case BFS:
		return "bfs"
	case DFS:
		return "dfs"
	case Degree:
		return "degree"
	case RCM:
		return "rcm"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Compute returns a permutation of edge indices of g according to the
// strategy. start is the preferred start vertex (commonly a terminal); a
// negative start lets the strategy choose.
func Compute(g *ugraph.Graph, st Strategy, start int) []int {
	switch st {
	case Natural:
		ord := make([]int, g.M())
		for i := range ord {
			ord[i] = i
		}
		return ord
	case BFS:
		return traversalOrder(g, vertexOrderBFS(g, start))
	case DFS:
		return traversalOrder(g, vertexOrderDFS(g, start))
	case Degree:
		return traversalOrder(g, vertexOrderDegree(g))
	case RCM:
		return traversalOrder(g, vertexOrderRCM(g, start))
	default:
		panic("order: unknown strategy")
	}
}

// vertexOrderBFS returns BFS discovery positions; unreachable vertices are
// appended afterwards so disconnected inputs still get a total order.
func vertexOrderBFS(g *ugraph.Graph, start int) []int {
	n := g.N()
	pos := make([]int, n)
	for i := range pos {
		pos[i] = -1
	}
	adjStart, adj := g.Adjacency()
	next := 0
	queue := make([]int, 0, n)
	visit := func(s int) {
		if pos[s] != -1 {
			return
		}
		pos[s] = next
		next++
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, ei := range adj[adjStart[v]:adjStart[v+1]] {
				w := ugraph.Other(g.Edge(int(ei)), v)
				if pos[w] == -1 {
					pos[w] = next
					next++
					queue = append(queue, w)
				}
			}
		}
	}
	if start >= 0 && start < n {
		visit(start)
	}
	for v := 0; v < n; v++ {
		visit(v)
	}
	return pos
}

func vertexOrderDFS(g *ugraph.Graph, start int) []int {
	n := g.N()
	pos := make([]int, n)
	for i := range pos {
		pos[i] = -1
	}
	adjStart, adj := g.Adjacency()
	next := 0
	stack := make([]int, 0, n)
	visit := func(s int) {
		if pos[s] != -1 {
			return
		}
		stack = append(stack[:0], s)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if pos[v] != -1 {
				continue
			}
			pos[v] = next
			next++
			for _, ei := range adj[adjStart[v]:adjStart[v+1]] {
				w := ugraph.Other(g.Edge(int(ei)), v)
				if pos[w] == -1 {
					stack = append(stack, w)
				}
			}
		}
	}
	if start >= 0 && start < n {
		visit(start)
	}
	for v := 0; v < n; v++ {
		visit(v)
	}
	return pos
}

func vertexOrderDegree(g *ugraph.Graph) []int {
	n := g.N()
	vs := make([]int, n)
	for i := range vs {
		vs[i] = i
	}
	sort.Slice(vs, func(a, b int) bool {
		da, db := g.Degree(vs[a]), g.Degree(vs[b])
		if da != db {
			return da > db
		}
		return vs[a] < vs[b]
	})
	pos := make([]int, n)
	for rank, v := range vs {
		pos[v] = rank
	}
	return pos
}

// vertexOrderRCM computes reverse Cuthill–McKee positions: BFS from a
// low-degree peripheral vertex, visiting neighbours in ascending degree
// order, then reversing the ordering. Unreachable vertices are appended.
func vertexOrderRCM(g *ugraph.Graph, start int) []int {
	n := g.N()
	adjStart, adj := g.Adjacency()
	visited := make([]bool, n)
	seq := make([]int, 0, n)
	queue := make([]int, 0, n)

	// Neighbour lists sorted by degree, computed lazily per vertex.
	neighbours := func(v int) []int {
		var ns []int
		for _, ei := range adj[adjStart[v]:adjStart[v+1]] {
			w := ugraph.Other(g.Edge(int(ei)), v)
			if w != v {
				ns = append(ns, w)
			}
		}
		sort.Slice(ns, func(a, b int) bool {
			da, db := g.Degree(ns[a]), g.Degree(ns[b])
			if da != db {
				return da < db
			}
			return ns[a] < ns[b]
		})
		return ns
	}
	visit := func(s int) {
		if visited[s] {
			return
		}
		visited[s] = true
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			seq = append(seq, v)
			for _, w := range neighbours(v) {
				if !visited[w] {
					visited[w] = true
					queue = append(queue, w)
				}
			}
		}
	}
	if start < 0 || start >= n {
		// Peripheral heuristic: start from a minimum-degree vertex.
		best, bestDeg := 0, 1<<30
		for v := 0; v < n; v++ {
			if d := g.Degree(v); d > 0 && d < bestDeg {
				best, bestDeg = v, d
			}
		}
		start = best
	}
	visit(start)
	for v := 0; v < n; v++ {
		visit(v)
	}
	// Reverse.
	pos := make([]int, n)
	for i, v := range seq {
		pos[v] = len(seq) - 1 - i
	}
	return pos
}

// traversalOrder sorts edges by (max endpoint position, min endpoint
// position, index): an edge is processed as soon as both endpoints have
// been "reached" in the vertex order, which clusters each vertex's edges
// and lets it leave the frontier promptly. Positions lie in [0, n), so the
// sort is two stable counting passes over the edge indices in ascending
// order, first by min position and then by max.
func traversalOrder(g *ugraph.Graph, pos []int) []int {
	m := g.M()
	lo, hi := make([]int, m), make([]int, m)
	for i := range lo {
		e := g.Edge(i)
		lo[i], hi[i] = pos[e.U], pos[e.V]
		if lo[i] > hi[i] {
			lo[i], hi[i] = hi[i], lo[i]
		}
	}
	idx, ord := make([]int, m), make([]int, m)
	for i := range idx {
		idx[i] = i
	}
	count := make([]int, len(pos)+1)
	countingSort(ord, idx, lo, count)
	countingSort(idx, ord, hi, count)
	return idx
}

// countingSort writes the indices of src into dst in ascending key[i]
// order, keeping src's order among equal keys. Every key lies in
// [0, len(count)−1); count is overwritten.
func countingSort(dst, src, key, count []int) {
	clear(count)
	for _, i := range src {
		count[key[i]+1]++
	}
	for k := 1; k < len(count); k++ {
		count[k] += count[k-1]
	}
	for _, i := range src {
		dst[count[key[i]]] = i
		count[key[i]]++
	}
}
