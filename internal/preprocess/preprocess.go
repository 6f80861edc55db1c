package preprocess

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"

	"netrel/internal/telemetry"
	"netrel/internal/ugraph"
	"netrel/internal/xfloat"
)

// Subproblem is one decomposed, transformed subgraph whose reliability
// multiplies into the final answer.
type Subproblem struct {
	// G is the transformed subgraph over compact vertex ids.
	G *ugraph.Graph
	// Terminals is the subproblem's terminal set (original terminals plus
	// bridge attachment points, per Lemma 5.1).
	Terminals ugraph.Terminals
	// VertexMap maps subgraph vertex ids back to original vertex ids.
	// Vertices introduced by no rewrite — every subgraph vertex descends
	// from an original vertex — so the map is total.
	VertexMap []int
	// EdgesBeforeTransform counts the subgraph's edges before the
	// series/parallel/loop rewrites (for the Table 5 statistic).
	EdgesBeforeTransform int
	// Sig is the canonical signature of (G, Terminals); equal signatures
	// mean byte-identical solver inputs, which is what batch planners and
	// result caches key on.
	Sig Signature
	// Comp is the 2ECC id (in the index used for the decomposition) this
	// subproblem was cut from — the cover key for dynamic-graph cache
	// invalidation: a delta invalidates exactly the cached results whose
	// component it touched.
	Comp int32
}

// Result is the outcome of the extension technique:
// R[G,T] = PB · Π R[Sub_i]. A subproblem with ≤1 terminal is dropped (its
// factor is exactly 1).
type Result struct {
	// PB is the product of the probabilities of bridges that every
	// terminal-connecting world must contain.
	PB xfloat.F
	// Subproblems are the remaining nontrivial reliability computations.
	Subproblems []*Subproblem
	// Disconnected reports that the terminals cannot be connected in any
	// world: R = 0 regardless of PB and subproblems.
	Disconnected bool
	// Bridges is the number of bridge edges whose probability was factored
	// into PB exactly (the bridges kept by the prune phase).
	Bridges int

	// Statistics for Table 5 and diagnostics.
	OriginalVertices, OriginalEdges int
	KeptVertices, KeptEdges         int
	MaxSubgraphEdges                int
	// ReducedRatio is max subgraph edges (after transform) over original
	// edges — the paper's "reduced graph size".
	ReducedRatio float64
}

// ErrNoTerminals reports an empty terminal set.
var ErrNoTerminals = errors.New("preprocess: empty terminal set")

// RunContext applies prune → decompose → transform. idx may be nil, in
// which case it is built on the fly; when ctx carries a trace, that build
// is recorded under PhaseIndex. ctx carries only the trace — the pass
// itself is not cancellable (it is cheap relative to solving; callers check
// ctx around it).
//
// With a prebuilt index, prune and decompose climb the bridge forest from
// the k terminals' components to their common ancestor (at most k·s steps
// for a Steiner subtree of s components), sort O(k + s) items, and copy
// the components kept. Nothing else grows with the graph, except the edge
// scan of g.Validate.
func RunContext(ctx context.Context, g *ugraph.Graph, ts ugraph.Terminals, idx *Index) (*Result, error) {
	if len(ts) == 0 {
		return nil, ErrNoTerminals
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if idx == nil {
		done := telemetry.FromContext(ctx).Span(telemetry.PhaseIndex)
		idx = BuildIndex(g)
		done()
	}
	res := &Result{
		PB:               xfloat.One,
		OriginalVertices: g.N(),
		OriginalEdges:    g.M(),
	}
	if len(ts) == 1 {
		res.ReducedRatio = 0
		return res, nil
	}

	// --- Prune: Steiner subtree of the bridge forest. ---
	// The terminals' components must share a tree, or R = 0. The subtree is
	// each terminal component's path up to their common ancestor, walked
	// until it meets a component already kept.
	tree := idx.tree
	termComps := make([]int32, len(ts))
	for i, t := range ts {
		termComps[i] = idx.Comp[t]
	}
	slices.Sort(termComps)
	termComps = slices.Compact(termComps)
	top := termComps[0]
	for _, c := range termComps[1:] {
		if tree[c].root != tree[top].root {
			res.Disconnected = true
			return res, nil
		}
		for tree[c].depth > tree[top].depth {
			c = tree[c].up
		}
		for tree[top].depth > tree[c].depth {
			top = tree[top].up
		}
		for c != top {
			c, top = tree[c].up, tree[top].up
		}
	}
	kept := make(map[int32]bool, len(termComps))
	var bridges []int32
	for _, c := range termComps {
		for !kept[c] {
			kept[c] = true
			if c == top {
				break
			}
			bridges = append(bridges, tree[c].upEdge)
			c = tree[c].up
		}
	}

	// --- Decompose: kept bridges must exist; their probabilities multiply
	// into PB (in edge order, which fixes the rounding) and their endpoints
	// become terminals of their components. ---
	slices.Sort(bridges)
	type attachment struct {
		comp int32
		v    int
	}
	at := make([]attachment, 0, len(ts)+2*len(bridges))
	for _, t := range ts {
		at = append(at, attachment{idx.Comp[t], t})
	}
	for _, ei := range bridges {
		e := g.Edge(int(ei))
		res.PB = res.PB.MulFloat64(e.P)
		at = append(at, attachment{idx.Comp[e.U], e.U}, attachment{idx.Comp[e.V], e.V})
	}
	res.Bridges = len(bridges)

	// --- Build subgraphs per kept comp, ascending; every kept comp holds a
	// terminal or a bridge endpoint. ---
	slices.SortFunc(at, func(a, b attachment) int {
		return cmp.Or(cmp.Compare(a.comp, b.comp), cmp.Compare(a.v, b.v))
	})
	terms := make([]int, len(at))
	for i, a := range at {
		terms[i] = a.v
	}
	for i := 0; i < len(at); {
		c := at[i].comp
		j := i + 1
		for j < len(at) && at[j].comp == c {
			j++
		}
		res.KeptVertices += int(idx.vertStart[c+1] - idx.vertStart[c])
		res.KeptEdges += int(idx.edgeStart[c+1] - idx.edgeStart[c])
		sub, err := buildSubproblem(g, idx, c, terms[i:j])
		if err != nil {
			return nil, err
		}
		if sub != nil { // nil: ≤1 distinct terminal, factor 1
			res.Subproblems = append(res.Subproblems, sub)
			res.MaxSubgraphEdges = max(res.MaxSubgraphEdges, sub.G.M())
		}
		i = j
	}
	if res.OriginalEdges > 0 {
		res.ReducedRatio = float64(res.MaxSubgraphEdges) / float64(res.OriginalEdges)
	}
	return res, nil
}

// buildSubproblem extracts comp c as a compact graph, applies the transform
// rewrites, and returns nil when the subproblem is trivially 1. terms must
// be ascending.
func buildSubproblem(g *ugraph.Graph, idx *Index, c int32, terms []int) (*Subproblem, error) {
	terms = slices.Compact(terms)
	if len(terms) <= 1 {
		return nil, nil
	}
	verts := idx.verts[idx.vertStart[c]:idx.vertStart[c+1]]
	local := make(map[int]int, len(verts))
	vmap := make([]int, len(verts))
	for i, v := range verts {
		local[int(v)] = i
		vmap[i] = int(v)
	}
	compEdges := idx.edges[idx.edgeStart[c]:idx.edgeStart[c+1]]
	edges := make([]ugraph.Edge, 0, len(compEdges))
	for _, ei := range compEdges {
		e := g.Edge(int(ei))
		edges = append(edges, ugraph.Edge{U: local[e.U], V: local[e.V], P: e.P})
	}
	isTerm := make([]bool, len(vmap))
	for _, t := range terms {
		isTerm[local[t]] = true
	}
	before := len(edges)
	edges = transform(len(vmap), edges, isTerm)

	// Compact away isolated vertices left by the rewrites.
	used := make([]bool, len(vmap))
	for _, e := range edges {
		used[e.U] = true
		used[e.V] = true
	}
	for i := range isTerm {
		if isTerm[i] {
			used[i] = true
		}
	}
	remap := make([]int, len(vmap))
	outMap := make([]int, 0, len(vmap))
	for i := range vmap {
		if used[i] {
			remap[i] = len(outMap)
			outMap = append(outMap, vmap[i])
		} else {
			remap[i] = -1
		}
	}
	sg := ugraph.New(len(outMap))
	for _, e := range edges {
		if _, err := sg.AddEdge(remap[e.U], remap[e.V], e.P); err != nil {
			return nil, fmt.Errorf("preprocess: rebuilding subgraph: %w", err)
		}
	}
	newTerms := make([]int, 0, len(terms))
	for i, it := range isTerm {
		if it {
			newTerms = append(newTerms, remap[i])
		}
	}
	ts2, err := ugraph.NewTerminals(sg, newTerms)
	if err != nil {
		return nil, err
	}
	return &Subproblem{
		G:                    sg,
		Terminals:            ts2,
		VertexMap:            outMap,
		EdgesBeforeTransform: before,
		Sig:                  Sign(sg, ts2),
		Comp:                 c,
	}, nil
}

// transform applies the paper's three rewrites to a fixpoint (Algorithm 3):
// loop deletion, series contraction of degree-2 non-terminals, and parallel
// edge merging. Reliability is preserved exactly. A worklist over incidence
// lists keeps the pass near-linear; the naive restart-per-rewrite scan is
// quadratic on road networks, which are mostly chains of degree-2 vertices.
func transform(n int, edges []ugraph.Edge, isTerm []bool) []ugraph.Edge {
	type tedge struct {
		u, v  int
		p     float64
		alive bool
	}
	es := make([]tedge, len(edges))
	inc := make([][]int32, n) // may contain dead or stale entries
	for i, e := range edges {
		es[i] = tedge{u: e.U, v: e.V, p: e.P, alive: true}
		inc[e.U] = append(inc[e.U], int32(i))
		if e.V != e.U {
			inc[e.V] = append(inc[e.V], int32(i))
		}
	}
	other := func(i, v int) int {
		if es[i].u == v {
			return es[i].v
		}
		return es[i].u
	}

	// liveAt compacts v's incidence list in place and returns it.
	liveAt := func(v int) []int32 {
		w := 0
		for _, ei := range inc[v] {
			e := &es[ei]
			if e.alive && (e.u == v || e.v == v) {
				inc[v][w] = ei
				w++
			}
		}
		inc[v] = inc[v][:w]
		return inc[v]
	}

	// Per vertex: whether it is queued, and the live edge to it first met
	// at the vertex being visited, valid while seen is that visit's number.
	type mark struct {
		queued      bool
		seen, first int32
	}
	marks := make([]mark, n)
	visit := int32(0)

	queue := make([]int32, 0, n)
	push := func(v int) {
		if !marks[v].queued {
			marks[v].queued = true
			queue = append(queue, int32(v))
		}
	}
	for v := 0; v < n; v++ {
		push(v)
	}

	for len(queue) > 0 {
		v := int(queue[len(queue)-1])
		queue = queue[:len(queue)-1]
		marks[v].queued = false

		// Drop self-loops and merge parallel edges at v.
		ids := liveAt(v)
		w := 0
		visit++
		for _, ei := range ids {
			o := other(int(ei), v)
			if o == v {
				es[ei].alive = false // loop
				continue
			}
			if m := &marks[o]; m.seen == visit {
				j := m.first
				es[j].p = 1 - (1-es[j].p)*(1-es[ei].p)
				es[ei].alive = false
				continue
			}
			marks[o].seen, marks[o].first = visit, ei
			ids[w] = ei
			w++
		}
		// A merge drops the neighbour's degree, but the neighbour needs no
		// push: it is still queued. All vertices start queued, and series
		// contraction, the only rewrite that creates a parallel pair,
		// pushes both its ends, so both ends of a pair are queued until the
		// first of them pops and merges it. Every other neighbour is
		// untouched since its last pop, and such a vertex is a fixed point.
		inc[v] = ids[:w]

		// Series contraction of a degree-2 non-terminal.
		if len(inc[v]) == 2 && !isTerm[v] {
			i1, i2 := int(inc[v][0]), int(inc[v][1])
			a, b := other(i1, v), other(i2, v)
			es[i2].alive = false
			es[i1].u, es[i1].v = a, b
			es[i1].p = es[i1].p * es[i2].p
			inc[v] = inc[v][:0]
			if a == b {
				es[i1].alive = false // became a loop
				push(a)
			} else {
				inc[b] = append(inc[b], int32(i1))
				// a keeps i1 in its list already; both endpoints may now
				// have parallel edges or become contractible.
				push(a)
				push(b)
			}
		}
	}

	out := make([]ugraph.Edge, 0, len(es))
	for _, e := range es {
		if e.alive {
			out = append(out, ugraph.Edge{U: e.u, V: e.v, P: e.p})
		}
	}
	return out
}
