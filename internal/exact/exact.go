// Package exact computes exact k-terminal network reliability for small
// graphs. It provides two independent engines — exhaustive possible-world
// enumeration and the factoring algorithm (the paper's Equation 12) with
// series-parallel reductions — used as ground truth by the test suite and by
// the accuracy experiments (Tables 3 and 4), which need exact R values.
package exact

import (
	"context"
	"errors"
	"fmt"

	"netrel/internal/ugraph"
	"netrel/internal/unionfind"
	"netrel/internal/xfloat"
)

// ErrTooLarge reports that a graph exceeds an engine's tractable size.
var ErrTooLarge = errors.New("exact: graph too large for exact computation")

// BruteForce sums Pr[Gp] over all 2^m possible worlds in which the terminals
// are connected (Definition 1 verbatim). Only graphs with at most 25 edges
// are accepted.
func BruteForce(g *ugraph.Graph, ts ugraph.Terminals) (xfloat.F, error) {
	if g.M() > 25 {
		return xfloat.Zero, fmt.Errorf("%w: %d edges for brute force", ErrTooLarge, g.M())
	}
	total := xfloat.Zero
	ugraph.EnumerateWorlds(g, func(exists []bool, pr xfloat.F) {
		if ugraph.TerminalsConnected(g, ts, exists) {
			total = total.Add(pr)
		}
	})
	return total, nil
}

// DefaultFactoringBudget bounds the number of recursive factoring calls.
const DefaultFactoringBudget = 5_000_000

// FactoringContext computes R[G,T] exactly with the factoring theorem
// R = p(e)·R(G·e) + (1−p(e))·R(G−e), applying series, parallel, loop,
// dangling-vertex and pendant-terminal reductions between branches. budget
// caps the recursion count (≤0 selects DefaultFactoringBudget); exceeding it
// returns ErrTooLarge.
//
// The recursion re-checks ctx every ctxCheckStride calls, so a cancelled or
// expired ctx aborts a runaway factoring promptly with ctx.Err(). ctx never
// affects the computed value — the algorithm is deterministic, so a
// cancelled-then-retried call returns exactly what an uninterrupted one
// would.
func FactoringContext(ctx context.Context, g *ugraph.Graph, ts ugraph.Terminals, budget int) (xfloat.F, error) {
	if budget <= 0 {
		budget = DefaultFactoringBudget
	}
	fg := newFactorGraph(g, ts)
	f := &factorer{budget: budget, ctx: ctx}
	r, err := f.solve(fg)
	if err != nil {
		return xfloat.Zero, err
	}
	return r, nil
}

// factorGraph is the mutable working representation: a multigraph edge list
// with terminal flags. Vertices are never renumbered; contraction redirects
// edges and merges terminal flags.
type factorGraph struct {
	n      int
	edges  []ugraph.Edge
	isTerm []bool
	k      int // live terminal count
}

func newFactorGraph(g *ugraph.Graph, ts ugraph.Terminals) *factorGraph {
	fg := &factorGraph{
		n:      g.N(),
		edges:  append([]ugraph.Edge(nil), g.Edges()...),
		isTerm: make([]bool, g.N()),
	}
	for _, t := range ts {
		if !fg.isTerm[t] {
			fg.isTerm[t] = true
			fg.k++
		}
	}
	return fg
}

func (fg *factorGraph) clone() *factorGraph {
	return &factorGraph{
		n:      fg.n,
		edges:  append([]ugraph.Edge(nil), fg.edges...),
		isTerm: append([]bool(nil), fg.isTerm...),
		k:      fg.k,
	}
}

type factorer struct {
	budget int
	ctx    context.Context
}

var errBudget = fmt.Errorf("%w: factoring budget exhausted", ErrTooLarge)

// ctxCheckStride is how many recursive calls pass between ctx re-checks: a
// ctx.Err() per call would dominate the tiny-graph base cases, while one
// every 4096 calls bounds cancellation latency to a few milliseconds of
// factoring work.
const ctxCheckStride = 4096

// solve consumes fg (mutates it freely).
func (f *factorer) solve(fg *factorGraph) (xfloat.F, error) {
	if f.budget <= 0 {
		return xfloat.Zero, errBudget
	}
	f.budget--
	if f.budget%ctxCheckStride == 0 {
		if err := f.ctx.Err(); err != nil {
			return xfloat.Zero, err
		}
	}

	factor := xfloat.One
	for {
		if fg.k <= 1 {
			return factor, nil
		}
		switch connectState(fg) {
		case stateDisconnected:
			return xfloat.Zero, nil
		}
		changed, mult := reduce(fg)
		factor = factor.Mul(mult)
		if fg.k <= 1 {
			return factor, nil
		}
		if !changed {
			break
		}
	}

	// Branch on a chosen edge.
	ei := chooseEdge(fg)
	e := fg.edges[ei]

	// Contract branch: e exists.
	gc := fg.clone()
	gc.contract(ei)
	rc, err := f.solve(gc)
	if err != nil {
		return xfloat.Zero, err
	}
	// Delete branch: e absent.
	fg.deleteEdge(ei)
	rd, err := f.solve(fg)
	if err != nil {
		return xfloat.Zero, err
	}
	r := rc.MulFloat64(e.P).Add(rd.MulFloat64(1 - e.P))
	return factor.Mul(r), nil
}

type connState int

const (
	stateOpen connState = iota
	stateDisconnected
)

// connectState checks whether the terminals can still possibly be connected
// (they lie in one component of the remaining multigraph).
func connectState(fg *factorGraph) connState {
	uf := unionfind.NewArena(fg.n)
	for _, e := range fg.edges {
		uf.Union(e.U, e.V)
	}
	root := -1
	for v := 0; v < fg.n; v++ {
		if !fg.isTerm[v] {
			continue
		}
		r := uf.Find(v)
		if root == -1 {
			root = r
		} else if r != root {
			return stateDisconnected
		}
	}
	return stateOpen
}

// reduce applies one pass of reliability-preserving rewrites and returns
// whether anything changed, plus a multiplicative factor accumulated from
// pendant-terminal eliminations (whose incident edge must exist).
func reduce(fg *factorGraph) (bool, xfloat.F) {
	changed := false
	mult := xfloat.One

	// Drop self-loops.
	w := 0
	for _, e := range fg.edges {
		if e.U == e.V {
			changed = true
			continue
		}
		fg.edges[w] = e
		w++
	}
	fg.edges = fg.edges[:w]

	// Merge parallel edges: group by normalized endpoint pair.
	type pair struct{ a, b int }
	seen := make(map[pair]int, len(fg.edges))
	w = 0
	for _, e := range fg.edges {
		a, b := e.U, e.V
		if a > b {
			a, b = b, a
		}
		if j, ok := seen[pair{a, b}]; ok {
			old := fg.edges[j]
			fg.edges[j].P = 1 - (1-old.P)*(1-e.P)
			changed = true
			continue
		}
		seen[pair{a, b}] = w
		fg.edges[w] = e
		w++
	}
	fg.edges = fg.edges[:w]

	// Degree-based rules need incident lists.
	deg := make([]int, fg.n)
	for _, e := range fg.edges {
		deg[e.U]++
		deg[e.V]++
	}
	for v := 0; v < fg.n; v++ {
		if fg.k <= 1 {
			// All terminals merged: the remaining graph is irrelevant and
			// pendant-terminal elimination would wrongly force edges.
			return changed, mult
		}
		switch {
		case deg[v] == 0 && fg.isTerm[v] && fg.k > 1:
			// Isolated terminal with other terminals remaining: impossible.
			// Leave for connectState to turn into 0 (it will: v is its own
			// component).
		case deg[v] == 1:
			ei := findIncident(fg, v)
			e := fg.edges[ei]
			u := ugraph.Other(e, v)
			if fg.isTerm[v] {
				// Pendant terminal: its only edge is a bridge to the rest
				// of the graph, so it must exist (Lemma 5.1's argument);
				// the neighbour inherits terminal-ness. Terminal count
				// drops only if u already was a terminal.
				mult = mult.MulFloat64(e.P)
				fg.isTerm[v] = false
				if fg.isTerm[u] {
					fg.k--
				} else {
					fg.isTerm[u] = true
				}
				fg.removeEdge(ei)
				deg[v] = 0
				deg[u]--
				changed = true
			} else {
				// Pendant non-terminal: irrelevant.
				fg.removeEdge(ei)
				deg[v] = 0
				deg[u]--
				changed = true
			}
		case deg[v] == 2 && !fg.isTerm[v]:
			i1, i2 := findTwoIncident(fg, v)
			e1, e2 := fg.edges[i1], fg.edges[i2]
			a, b := ugraph.Other(e1, v), ugraph.Other(e2, v)
			if a == v || b == v {
				break // self-loop handled next pass
			}
			// Series reduction: path a–v–b becomes edge (a,b) with p1·p2.
			// When a == b this forms a self-loop that the next pass drops.
			fg.edges[i1] = ugraph.Edge{U: a, V: b, P: e1.P * e2.P}
			fg.removeEdge(i2)
			deg[v] = 0
			changed = true
			// Degrees of a and b are unchanged (one incident edge replaced
			// by one incident edge), except a==b gains a loop; recompute
			// next pass rather than track here.
			return true, mult
		}
	}
	return changed, mult
}

func findIncident(fg *factorGraph, v int) int {
	for i, e := range fg.edges {
		if e.U == v || e.V == v {
			return i
		}
	}
	panic("exact: incident edge not found")
}

func findTwoIncident(fg *factorGraph, v int) (int, int) {
	first := -1
	for i, e := range fg.edges {
		if e.U == v || e.V == v {
			if first == -1 {
				first = i
			} else {
				return first, i
			}
		}
	}
	panic("exact: two incident edges not found")
}

// removeEdge deletes edge i by swapping with the last element.
func (fg *factorGraph) removeEdge(i int) {
	last := len(fg.edges) - 1
	fg.edges[i] = fg.edges[last]
	fg.edges = fg.edges[:last]
}

func (fg *factorGraph) deleteEdge(i int) { fg.removeEdge(i) }

// contract merges the endpoints of edge i (the edge is deemed existent).
func (fg *factorGraph) contract(i int) {
	e := fg.edges[i]
	fg.removeEdge(i)
	u, v := e.U, e.V
	if u == v {
		return
	}
	// Redirect v's edges to u.
	for j := range fg.edges {
		if fg.edges[j].U == v {
			fg.edges[j].U = u
		}
		if fg.edges[j].V == v {
			fg.edges[j].V = u
		}
	}
	if fg.isTerm[v] {
		if fg.isTerm[u] {
			fg.k--
		} else {
			fg.isTerm[u] = true
		}
		fg.isTerm[v] = false
	}
}

// chooseEdge picks the branching edge: prefer the highest-probability edge
// incident to a terminal, which drives the contract branch toward early
// termination.
func chooseEdge(fg *factorGraph) int {
	best, bestScore := 0, -1.0
	for i, e := range fg.edges {
		score := e.P
		if fg.isTerm[e.U] || fg.isTerm[e.V] {
			score += 1
		}
		if score > bestScore {
			best, bestScore = i, score
		}
	}
	return best
}
