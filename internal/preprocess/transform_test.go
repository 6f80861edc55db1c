package preprocess

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"netrel/internal/ugraph"
)

// refTransform is transform as it was before the parallel-edge merge
// used a stamp array: a per-vertex map of first edges to each neighbour,
// whose neighbours are pushed in map order.
func refTransform(n int, edges []ugraph.Edge, isTerm []bool) []ugraph.Edge {
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

	queue := make([]int32, 0, n)
	inQueue := make([]bool, n)
	push := func(v int) {
		if !inQueue[v] {
			inQueue[v] = true
			queue = append(queue, int32(v))
		}
	}
	for v := 0; v < n; v++ {
		push(v)
	}

	for len(queue) > 0 {
		v := int(queue[len(queue)-1])
		queue = queue[:len(queue)-1]
		inQueue[v] = false

		// Drop self-loops and merge parallel edges at v.
		ids := liveAt(v)
		w := 0
		firstTo := make(map[int]int32, len(ids))
		changedNeighbour := false
		for _, ei := range ids {
			o := other(int(ei), v)
			if o == v {
				es[ei].alive = false // loop
				continue
			}
			if j, ok := firstTo[o]; ok {
				es[j].p = 1 - (1-es[j].p)*(1-es[ei].p)
				es[ei].alive = false
				changedNeighbour = true
				continue
			}
			firstTo[o] = ei
			ids[w] = ei
			w++
		}
		inc[v] = ids[:w]
		if changedNeighbour {
			// Neighbour degrees dropped; they may now be contractible.
			for o := range firstTo {
				push(o)
			}
		}

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

// chainMultigraph returns a random multigraph on n vertices built from
// paths of fresh degree-2 vertices between random anchors, plus random
// extra edges, parallel edges and self-loops, with random terminals.
func chainMultigraph(r *rand.Rand) (int, []ugraph.Edge, []bool) {
	n := 2 + r.IntN(6)
	var edges []ugraph.Edge
	add := func(u, v int) {
		edges = append(edges, ugraph.Edge{U: u, V: v, P: 0.05 + 0.9*r.Float64()})
	}
	for c := r.IntN(6); c > 0; c-- {
		at := r.IntN(n)
		for k := r.IntN(5); k > 0; k-- {
			add(at, n)
			at = n
			n++
		}
		add(at, r.IntN(n))
	}
	for k := r.IntN(2 * n); k > 0; k-- {
		u, v := r.IntN(n), r.IntN(n)
		switch r.IntN(8) {
		case 0:
			v = u
		case 1, 2:
			if len(edges) > 0 {
				e := edges[r.IntN(len(edges))]
				u, v = e.V, e.U
			}
		}
		add(u, v)
	}
	r.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	isTerm := make([]bool, n)
	for k := 1 + r.IntN(4); k > 0; k-- {
		isTerm[r.IntN(n)] = true
	}
	return n, edges, isTerm
}

// TestTransformMatchesReference requires transform's output to equal
// refTransform's on thousands of random multigraphs with parallel
// edges, self-loops and degree-2 chains.
func TestTransformMatchesReference(t *testing.T) {
	r := rand.New(rand.NewPCG(28, 2))
	for trial := 0; trial < 5000; trial++ {
		n, edges, isTerm := chainMultigraph(r)
		want := refTransform(n, append([]ugraph.Edge(nil), edges...), isTerm)
		got := transform(n, append([]ugraph.Edge(nil), edges...), isTerm)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: transform(%d, %v, %v)\n= %v\nreference %v", trial, n, edges, isTerm, got, want)
		}
	}
}

// FuzzTransformMatchesReference is TestTransformMatchesReference on fuzzed
// generator seeds.
func FuzzTransformMatchesReference(f *testing.F) {
	f.Add(uint64(1), uint64(2))
	f.Add(uint64(28), uint64(2))
	f.Fuzz(func(t *testing.T, s1, s2 uint64) {
		n, edges, isTerm := chainMultigraph(rand.New(rand.NewPCG(s1, s2)))
		want := refTransform(n, append([]ugraph.Edge(nil), edges...), isTerm)
		got := transform(n, append([]ugraph.Edge(nil), edges...), isTerm)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("transform(%d, %v, %v)\n= %v\nreference %v", n, edges, isTerm, got, want)
		}
	})
}
