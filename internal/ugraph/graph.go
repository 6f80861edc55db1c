// Package ugraph defines the uncertain graph model of the paper: an
// undirected multigraph whose edges carry independent existence
// probabilities, together with possible-world machinery (sampling,
// enumeration, probabilities) and terminal-connectivity checks.
package ugraph

import (
	"errors"
	"fmt"
	"sort"

	"netrel/internal/unionfind"
)

// Edge is an uncertain edge between vertices U and V existing with
// probability P. Parallel edges are permitted (they arise naturally during
// the extension technique's transformation phase); self-loops are permitted
// in the representation but rejected by Validate since they never affect
// reliability and the transformation deletes them on sight.
type Edge struct {
	U, V int
	P    float64
}

// Graph is an uncertain multigraph with a fixed vertex count. The zero
// value is unusable; construct with New.
type Graph struct {
	n     int
	edges []Edge

	// CSR adjacency over edge indices, built lazily by Adjacency.
	adjStart []int32
	adjEdge  []int32
}

// ErrVertexRange reports an out-of-range vertex id.
var ErrVertexRange = errors.New("ugraph: vertex out of range")

// ErrProbRange reports an edge probability outside (0, 1].
var ErrProbRange = errors.New("ugraph: edge probability must be in (0,1]")

// New returns an empty uncertain graph over n vertices 0..n-1.
func New(n int) *Graph {
	if n < 0 {
		panic("ugraph: negative vertex count")
	}
	return &Graph{n: n}
}

// FromEdges builds a graph over n vertices from the given edge list,
// validating each edge.
func FromEdges(n int, edges []Edge) (*Graph, error) {
	g := New(n)
	for _, e := range edges {
		if _, err := g.AddEdge(e.U, e.V, e.P); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// AddEdge appends an uncertain edge and returns its index. The probability
// must be in (0,1] — the paper defines p : E → (0,1]; an impossible edge is
// simply not part of the graph.
func (g *Graph) AddEdge(u, v int, p float64) (int, error) {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return 0, fmt.Errorf("%w: edge (%d,%d) with n=%d", ErrVertexRange, u, v, g.n)
	}
	if !(p > 0 && p <= 1) {
		return 0, fmt.Errorf("%w: got %v", ErrProbRange, p)
	}
	g.edges = append(g.edges, Edge{U: u, V: v, P: p})
	g.adjStart = nil // invalidate CSR
	return len(g.edges) - 1, nil
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return len(g.edges) }

// Edge returns the i-th edge.
func (g *Graph) Edge(i int) Edge { return g.edges[i] }

// Edges returns the underlying edge slice. Callers must not mutate it.
func (g *Graph) Edges() []Edge { return g.edges }

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := New(g.n)
	c.edges = append([]Edge(nil), g.edges...)
	return c
}

// Degree returns the number of edge endpoints at v (self-loops count twice).
func (g *Graph) Degree(v int) int {
	start, _ := g.Adjacency()
	return int(start[v+1] - start[v])
}

// Adjacency returns the CSR adjacency arrays: for vertex v, the incident
// edge indices are adj[start[v]:start[v+1]]. A self-loop appears twice.
// Built on first use and cached until the edge set changes.
func (g *Graph) Adjacency() (start []int32, adj []int32) {
	if g.adjStart != nil {
		return g.adjStart, g.adjEdge
	}
	deg := make([]int32, g.n+1)
	for _, e := range g.edges {
		deg[e.U+1]++
		deg[e.V+1]++
	}
	for i := 0; i < g.n; i++ {
		deg[i+1] += deg[i]
	}
	starts := append([]int32(nil), deg...)
	adjE := make([]int32, deg[g.n])
	pos := append([]int32(nil), deg[:g.n]...)
	for i, e := range g.edges {
		adjE[pos[e.U]] = int32(i)
		pos[e.U]++
		adjE[pos[e.V]] = int32(i)
		pos[e.V]++
	}
	g.adjStart, g.adjEdge = starts, adjE
	return starts, adjE
}

// Other returns the endpoint of edge e opposite to v. For a self-loop it
// returns v.
func Other(e Edge, v int) int {
	if e.U == v {
		return e.V
	}
	return e.U
}

// Validate checks structural invariants for reliability computation: no
// self-loops, all probabilities in (0,1], and (optionally) connectivity.
// A disconnected graph with terminals in different components has
// reliability zero and the caller is almost certainly holding a bug, so
// Validate surfaces it.
func (g *Graph) Validate() error {
	for i, e := range g.edges {
		if e.U == e.V {
			return fmt.Errorf("ugraph: edge %d is a self-loop at vertex %d", i, e.U)
		}
		if !(e.P > 0 && e.P <= 1) {
			return fmt.Errorf("%w: edge %d has p=%v", ErrProbRange, i, e.P)
		}
	}
	return nil
}

// Connected reports whether the graph is connected ignoring probabilities
// (i.e., in the certain world where all edges exist).
func (g *Graph) Connected() bool {
	if g.n == 0 {
		return true
	}
	d := unionfind.NewArena(g.n)
	comps := g.n
	for _, e := range g.edges {
		if d.Union(e.U, e.V) {
			comps--
		}
	}
	return comps == 1
}

// AvgDegree returns 2|E|/|V|, the statistic reported in the paper's Table 2.
func (g *Graph) AvgDegree() float64 {
	if g.n == 0 {
		return 0
	}
	return 2 * float64(len(g.edges)) / float64(g.n)
}

// AvgProb returns the mean edge probability (Table 2 statistic).
func (g *Graph) AvgProb() float64 {
	if len(g.edges) == 0 {
		return 0
	}
	s := 0.0
	for _, e := range g.edges {
		s += e.P
	}
	return s / float64(len(g.edges))
}

// Terminals is a validated set of terminal vertices.
type Terminals []int

// NewTerminals validates and canonicalizes (sorts, dedups) a terminal set
// for graph g. At least one terminal is required.
func NewTerminals(g *Graph, ts []int) (Terminals, error) {
	if len(ts) == 0 {
		return nil, errors.New("ugraph: empty terminal set")
	}
	out := append([]int(nil), ts...)
	sort.Ints(out)
	w := 1
	for i := 1; i < len(out); i++ {
		if out[i] != out[i-1] {
			out[w] = out[i]
			w++
		}
	}
	out = out[:w]
	for _, t := range out {
		if t < 0 || t >= g.N() {
			return nil, fmt.Errorf("%w: terminal %d with n=%d", ErrVertexRange, t, g.N())
		}
	}
	return Terminals(out), nil
}
