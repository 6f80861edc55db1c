package preprocess

import (
	"context"
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"sort"
	"testing"

	"netrel/internal/ugraph"
	"netrel/internal/xfloat"
)

// TestRunMatchesReference holds RunContext to refRunContext result for
// result, every statistic included, on graphs of one to three graph
// components (forests among them) with isolated vertices and parallel
// edges shuffled into random edge order, for 1–6 terminals drawn anywhere,
// inside one component, or with an isolated vertex; and again after a
// probability-only Index.Update, which keeps the index.
func TestRunMatchesReference(t *testing.T) {
	r := rand.New(rand.NewPCG(26, 1))
	for trial := 0; trial < 3000; trial++ {
		g := messyForest(r)
		idx := BuildIndex(g)
		var sets [][]int
		for q := 0; q < 3; q++ {
			sets = append(sets, r.Perm(g.N())[:1+r.IntN(min(6, g.N()))])
		}
		var inComp, isolated []int
		for v, c := range idx.Comp {
			if c == idx.Comp[0] {
				inComp = append(inComp, v)
			}
			if g.Degree(v) == 0 {
				isolated = append(isolated, v)
			}
		}
		r.Shuffle(len(inComp), func(i, j int) { inComp[i], inComp[j] = inComp[j], inComp[i] })
		sets = append(sets, inComp[:min(len(inComp), 1+r.IntN(6))])
		if len(isolated) > 0 {
			sets = append(sets, append(sets[0], isolated[r.IntN(len(isolated))]))
		}

		var d ugraph.Delta
		if g.M() > 0 {
			for _, e := range r.Perm(g.M())[:1+r.IntN(min(3, g.M()))] {
				d.SetProb = append(d.SetProb, ugraph.ProbUpdate{Edge: e, P: 0.05 + 0.9*r.Float64()})
			}
		}
		ng, _, err := ugraph.ApplyDelta(g, d)
		if err != nil {
			t.Fatal(err)
		}
		nidx := idx.Update(g, ng, d).Index

		for _, set := range sets {
			ts, err := ugraph.NewTerminals(g, set)
			if err != nil {
				t.Fatal(err)
			}
			for _, in := range []struct {
				g   *ugraph.Graph
				idx *Index
			}{{g, idx}, {g, nil}, {ng, nidx}} {
				got, err := RunContext(context.Background(), in.g, ts, in.idx)
				if err != nil {
					t.Fatal(err)
				}
				want, err := refRunContext(in.g, ts, in.idx)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d, terminals %v on %v:\n got %+v\nwant %+v", trial, ts, in.g.Edges(), got, want)
				}
			}
		}
	}
}

// messyForest draws a graph of one to three graph components over up to 40
// vertices: a random spanning forest of each, bushy or path-like, with some
// vertices left isolated, then (in two graphs of three) short
// cycle-closing edges, which string small 2ECCs along bridges, then a few
// parallel copies, all in shuffled edge order.
func messyForest(r *rand.Rand) *ugraph.Graph {
	n := 1 + r.IntN(40)
	parts, reach := 1, n
	if r.IntN(2) == 0 {
		parts = 2 + r.IntN(2)
	}
	if r.IntN(2) == 0 {
		reach = 2
	}
	// Vertex v lies in graph component v % parts; earlier(v, w) is one of
	// the w vertices of that component with the next smaller ids.
	earlier := func(v, w int) int { return v - parts*(1+r.IntN(min(w, v/parts))) }
	var edges []ugraph.Edge
	add := func(u, v int) {
		edges = append(edges, ugraph.Edge{U: u, V: v, P: 0.05 + 0.9*r.Float64()})
	}
	for v := parts; v < n; v++ {
		if r.IntN(16) > 0 {
			add(earlier(v, reach), v)
		}
	}
	if r.IntN(3) > 0 {
		for i := r.IntN(n); i > 0; i-- {
			if v := r.IntN(n); v >= parts {
				add(earlier(v, 3), v)
			}
		}
	}
	for i := r.IntN(3); i > 0 && len(edges) > 0; i-- {
		edges = append(edges, edges[r.IntN(len(edges))])
	}
	r.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	g, err := ugraph.FromEdges(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// refRunContext is the whole-graph prune and decompose that RunContext
// replaced, kept as the reference TestRunMatchesReference holds it to: it
// rebuilds the bridge tree's adjacency, strips non-terminal leaves over all
// components, and scans every vertex and edge to gather each kept
// component. It reads only the exported index fields.
func refRunContext(g *ugraph.Graph, ts ugraph.Terminals, idx *Index) (*Result, error) {
	if len(ts) == 0 {
		return nil, ErrNoTerminals
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if idx == nil {
		idx = BuildIndex(g)
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

	// --- Prune: Steiner subtree of the bridge tree. ---
	// Bridge-tree nodes are 2ECCs; edges are bridges. Iteratively strip
	// non-terminal leaf components; what remains is the minimal subtree
	// spanning all terminal components.
	nc := idx.NumComps
	isTermComp := make([]bool, nc)
	for _, t := range ts {
		isTermComp[idx.Comp[t]] = true
	}
	compAdj := make([][]refBridgeArc, nc)
	for _, ei := range idx.Bridges {
		e := g.Edge(ei)
		cu, cv := idx.Comp[e.U], idx.Comp[e.V]
		compAdj[cu] = append(compAdj[cu], refBridgeArc{edge: ei, to: cv})
		compAdj[cv] = append(compAdj[cv], refBridgeArc{edge: ei, to: cu})
	}

	// Connectivity check across comps: all terminal comps must be in one
	// bridge-tree component; otherwise R = 0.
	if !refTerminalCompsConnected(compAdj, isTermComp, nc) {
		res.Disconnected = true
		return res, nil
	}

	kept := make([]bool, nc)
	for c := range kept {
		kept[c] = true
	}
	deg := make([]int, nc)
	for c := range compAdj {
		deg[c] = len(compAdj[c])
	}
	queue := make([]int32, 0, nc)
	for c := 0; c < nc; c++ {
		if deg[c] <= 1 && !isTermComp[c] {
			queue = append(queue, int32(c))
		}
	}
	for len(queue) > 0 {
		c := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if !kept[c] || isTermComp[c] {
			continue
		}
		if deg[c] > 1 {
			continue
		}
		kept[c] = false
		for _, arc := range compAdj[c] {
			if kept[arc.to] {
				deg[arc.to]--
				if deg[arc.to] <= 1 && !isTermComp[arc.to] {
					queue = append(queue, arc.to)
				}
			}
		}
	}
	// Comps in other bridge-tree components (not reachable from terminal
	// comps) also have to go; strip them by reachability.
	reach := make([]bool, nc)
	stack := []int32{idx.Comp[ts[0]]}
	reach[idx.Comp[ts[0]]] = true
	for len(stack) > 0 {
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, arc := range compAdj[c] {
			if kept[arc.to] && !reach[arc.to] {
				reach[arc.to] = true
				stack = append(stack, arc.to)
			}
		}
	}
	for c := 0; c < nc; c++ {
		if !reach[c] {
			kept[c] = false
		}
	}

	// --- Decompose: kept bridges must exist; their probabilities multiply
	// into PB and their endpoints become terminals of their components. ---
	extraTerms := make(map[int32][]int, 8) // comp → attachment vertices
	for _, ei := range idx.Bridges {
		e := g.Edge(ei)
		cu, cv := idx.Comp[e.U], idx.Comp[e.V]
		if !kept[cu] || !kept[cv] {
			continue
		}
		res.PB = res.PB.MulFloat64(e.P)
		res.Bridges++
		extraTerms[cu] = append(extraTerms[cu], e.U)
		extraTerms[cv] = append(extraTerms[cv], e.V)
	}

	// --- Build subgraphs per kept comp. ---
	// Group vertices and edges.
	termsByComp := make(map[int32][]int, 8)
	for _, t := range ts {
		c := idx.Comp[t]
		termsByComp[c] = append(termsByComp[c], t)
	}
	for c, vs := range extraTerms {
		termsByComp[c] = append(termsByComp[c], vs...)
	}

	vertsByComp := make(map[int32][]int, 8)
	for v := 0; v < g.N(); v++ {
		c := idx.Comp[v]
		if kept[c] {
			vertsByComp[c] = append(vertsByComp[c], v)
		}
	}

	comps := make([]int32, 0, len(termsByComp))
	for c := range termsByComp {
		if kept[c] {
			comps = append(comps, c)
		}
	}
	sort.Slice(comps, func(i, j int) bool { return comps[i] < comps[j] })

	for _, c := range comps {
		sub, err := refBuildSubproblem(g, idx, c, vertsByComp[c], termsByComp[c])
		if err != nil {
			return nil, err
		}
		if sub == nil {
			continue // ≤1 distinct terminal: factor 1
		}
		res.Subproblems = append(res.Subproblems, sub)
	}
	for _, c := range comps {
		res.KeptVertices += len(vertsByComp[c])
	}
	for ei, e := range g.Edges() {
		if idx.IsBridge[ei] {
			continue
		}
		if kept[idx.Comp[e.U]] {
			res.KeptEdges++
		}
	}
	for _, sub := range res.Subproblems {
		if sub.G.M() > res.MaxSubgraphEdges {
			res.MaxSubgraphEdges = sub.G.M()
		}
	}
	if res.OriginalEdges > 0 {
		res.ReducedRatio = float64(res.MaxSubgraphEdges) / float64(res.OriginalEdges)
	}
	return res, nil
}

// refBridgeArc is an edge of the bridge tree: a bridge leading to a
// neighbouring 2ECC.
type refBridgeArc struct {
	edge int   // edge index in g
	to   int32 // neighbouring comp
}

func refTerminalCompsConnected(compAdj [][]refBridgeArc, isTermComp []bool, nc int) bool {
	start := -1
	for c := 0; c < nc; c++ {
		if isTermComp[c] {
			start = c
			break
		}
	}
	if start == -1 {
		return true
	}
	seen := make([]bool, nc)
	stack := []int32{int32(start)}
	seen[start] = true
	for len(stack) > 0 {
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, arc := range compAdj[c] {
			if !seen[arc.to] {
				seen[arc.to] = true
				stack = append(stack, arc.to)
			}
		}
	}
	for c := 0; c < nc; c++ {
		if isTermComp[c] && !seen[c] {
			return false
		}
	}
	return true
}

// refBuildSubproblem extracts comp c as a compact graph, applies the transform
// rewrites, and returns nil when the subproblem is trivially 1.
func refBuildSubproblem(g *ugraph.Graph, idx *Index, c int32, verts []int, terms []int) (*Subproblem, error) {
	// Dedup terminals.
	sort.Ints(terms)
	terms = slices.Compact(terms)
	if len(terms) <= 1 {
		return nil, nil
	}
	local := make(map[int]int, len(verts))
	vmap := make([]int, 0, len(verts))
	for _, v := range verts {
		local[v] = len(vmap)
		vmap = append(vmap, v)
	}
	edges := make([]ugraph.Edge, 0, 16)
	for ei, e := range g.Edges() {
		if idx.IsBridge[ei] || idx.Comp[e.U] != c {
			continue
		}
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
