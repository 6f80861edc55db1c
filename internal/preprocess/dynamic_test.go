package preprocess

import (
	"math/rand"
	"reflect"
	"testing"

	"netrel/internal/ugraph"
)

// randSparseGraph makes a graph with a bridge-rich structure: a few random
// cycles plus random tree edges plus a couple of parallel edges, so deltas
// hit bridges, non-bridges, and component boundaries alike.
func randSparseGraph(rng *rand.Rand) *ugraph.Graph {
	n := 6 + rng.Intn(20)
	g := ugraph.New(n)
	m := n + rng.Intn(n)
	for i := 0; i < m; i++ {
		u := rng.Intn(n)
		v := rng.Intn(n)
		if u == v {
			continue
		}
		if _, err := g.AddEdge(u, v, 0.1+0.9*rng.Float64()*0.99); err != nil {
			panic(err)
		}
	}
	return g
}

func randDelta(rng *rand.Rand, g *ugraph.Graph) ugraph.Delta {
	var d ugraph.Delta
	m := g.M()
	if m > 0 && rng.Intn(2) == 0 {
		seen := map[int]bool{}
		for i := 0; i < 1+rng.Intn(3); i++ {
			e := rng.Intn(m)
			if !seen[e] {
				seen[e] = true
				d.SetProb = append(d.SetProb, ugraph.ProbUpdate{Edge: e, P: 0.05 + 0.9*rng.Float64()})
			}
		}
	}
	if m > 0 && rng.Intn(2) == 0 {
		seen := map[int]bool{}
		for _, u := range d.SetProb {
			seen[u.Edge] = true
		}
		for i := 0; i < 1+rng.Intn(3); i++ {
			e := rng.Intn(m)
			if !seen[e] {
				seen[e] = true
				d.Remove = append(d.Remove, e)
			}
		}
	}
	if rng.Intn(2) == 0 {
		for i := 0; i < 1+rng.Intn(3); i++ {
			u := rng.Intn(g.N())
			v := rng.Intn(g.N())
			if u != v {
				d.Add = append(d.Add, ugraph.Edge{U: u, V: v, P: 0.05 + 0.9*rng.Float64()})
			}
		}
	}
	return d
}

// TestUpdateMatchesRebuild is the bit-identity backbone: across many random
// graphs and deltas — probability-only, removals (including multi-removal
// splits), additions (including cross-tree merges and parallel re-adds of
// bridges), and mixes — the updated index must equal a cold BuildIndex of
// the mutated graph exactly, labels, bridge forest and component lists
// included, and its cover map must be exact both ways.
func TestUpdateMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 500; iter++ {
		g := randSparseGraph(rng)
		checkUpdateMatchesRebuild(t, iter, g, randDelta(rng, g))
	}
}

// FuzzIndexUpdateMatchesRebuild is TestUpdateMatchesRebuild on a graph and
// a delta drawn from fuzzed seeds.
func FuzzIndexUpdateMatchesRebuild(f *testing.F) {
	f.Add(int64(7), int64(7))
	f.Add(int64(1), int64(2))
	f.Add(int64(33), int64(-5))
	f.Fuzz(func(t *testing.T, gseed, dseed int64) {
		g := randSparseGraph(rand.New(rand.NewSource(gseed)))
		checkUpdateMatchesRebuild(t, 0, g, randDelta(rand.New(rand.NewSource(dseed)), g))
	})
}

// checkUpdateMatchesRebuild applies d to g and checks Index.Update
// against a cold BuildIndex of the result: the same index, the receiver
// kept for a probability-only delta, and a cover map that holds to
// checkCompMap's contract.
func checkUpdateMatchesRebuild(t *testing.T, iter int, g *ugraph.Graph, d ugraph.Delta) {
	t.Helper()
	idx := BuildIndex(g)
	ng, oldToNew, err := ugraph.ApplyDelta(g, d)
	if err != nil {
		t.Fatalf("iter %d: %v", iter, err)
	}
	up := idx.Update(g, ng, d)
	want := BuildIndex(ng)
	got := up.Index
	if got.NumComps != want.NumComps {
		t.Fatalf("iter %d: NumComps=%d, want %d (delta %+v)", iter, got.NumComps, want.NumComps, d)
	}
	for v := range want.Comp {
		if got.Comp[v] != want.Comp[v] {
			t.Fatalf("iter %d: Comp[%d]=%d, want %d (delta %+v)", iter, v, got.Comp[v], want.Comp[v], d)
		}
	}
	for e := range want.IsBridge {
		if got.IsBridge[e] != want.IsBridge[e] {
			t.Fatalf("iter %d: IsBridge[%d]=%v, want %v (delta %+v)", iter, e, got.IsBridge[e], want.IsBridge[e], d)
		}
	}
	if len(got.Bridges) != len(want.Bridges) {
		t.Fatalf("iter %d: %d bridges, want %d", iter, len(got.Bridges), len(want.Bridges))
	}
	for i := range want.Bridges {
		if got.Bridges[i] != want.Bridges[i] {
			t.Fatalf("iter %d: Bridges[%d]=%d, want %d", iter, i, got.Bridges[i], want.Bridges[i])
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("iter %d: updated index differs from a cold build (delta %+v):\n got %+v\nwant %+v", iter, d, got, want)
	}
	if !d.TopologyChanged() && got != idx {
		t.Fatalf("iter %d: probability-only delta replaced the index", iter)
	}
	if len(up.CompMap) != idx.NumComps {
		t.Fatalf("iter %d: CompMap sized %d, want %d", iter, len(up.CompMap), idx.NumComps)
	}
	checkCompMap(t, iter, g, ng, d, oldToNew, idx, want, up.CompMap)
}

// checkCompMap holds a cover map to its contract against the old index idx
// and a cold build of the new graph. Sound: a kept component maps onto a
// new component with exactly its vertex set, all of its old non-bridge
// edges survive with their probabilities, and no added edge lands inside
// it. Precise: a dropped component had an edit land inside it (a
// non-bridge probability update or removal, or an addition with both
// endpoints in it) or lost its vertex set as a component.
func checkCompMap(t *testing.T, iter int, g, ng *ugraph.Graph, d ugraph.Delta, oldToNew []int, idx, want *Index, compMap []int32) {
	t.Helper()
	edited := make([]bool, idx.NumComps)
	for _, u := range d.SetProb {
		if !idx.IsBridge[u.Edge] {
			edited[idx.Comp[g.Edge(u.Edge).U]] = true
		}
	}
	for _, i := range d.Remove {
		if !idx.IsBridge[i] {
			edited[idx.Comp[g.Edge(i).U]] = true
		}
	}
	for _, e := range d.Add {
		if idx.Comp[e.U] == idx.Comp[e.V] {
			edited[idx.Comp[e.U]] = true
		}
	}
	for c := 0; c < idx.NumComps; c++ {
		// sameSet: c's vertex set is exactly new component nc's.
		sameSet := func(nc int32) bool {
			for v := range idx.Comp {
				if (idx.Comp[v] == int32(c)) != (want.Comp[v] == nc) {
					return false
				}
			}
			return true
		}
		nc := compMap[c]
		if nc < 0 {
			first := int32(-1)
			for v := range idx.Comp {
				if idx.Comp[v] == int32(c) {
					first = want.Comp[v]
					break
				}
			}
			if !edited[c] && sameSet(first) {
				t.Fatalf("iter %d: comp %d dropped though no edit landed inside it and its vertex set survived (delta %+v)", iter, c, d)
			}
			continue
		}
		if !sameSet(nc) {
			t.Fatalf("iter %d: kept comp %d→%d changed its vertex set (delta %+v)", iter, c, nc, d)
		}
		for i, e := range g.Edges() {
			if idx.IsBridge[i] || idx.Comp[e.U] != int32(c) {
				continue
			}
			if j := oldToNew[i]; j < 0 || ng.Edge(j).P != e.P {
				t.Fatalf("iter %d: kept comp %d lost or changed edge %d (delta %+v)", iter, c, i, d)
			}
		}
		for _, e := range d.Add {
			if idx.Comp[e.U] == int32(c) && idx.Comp[e.V] == int32(c) {
				t.Fatalf("iter %d: kept comp %d gained an edge %+v (delta %+v)", iter, c, e, d)
			}
		}
	}
}

// TestUpdateBridgeRules pins the hand-checkable dynamic rules.
func TestUpdateBridgeRules(t *testing.T) {
	// Two triangles joined by a bridge: comps {0,1,2} and {3,4,5}.
	g := ugraph.New(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}, {2, 3}} {
		if _, err := g.AddEdge(e[0], e[1], 0.5); err != nil {
			t.Fatal(err)
		}
	}
	idx := BuildIndex(g)
	if !idx.IsBridge[6] || idx.NumComps != 2 {
		t.Fatalf("seed index unexpected: bridges=%v comps=%d", idx.Bridges, idx.NumComps)
	}

	apply := func(d ugraph.Delta) *IndexUpdate {
		t.Helper()
		ng, _, err := ugraph.ApplyDelta(g, d)
		if err != nil {
			t.Fatal(err)
		}
		return idx.Update(g, ng, d)
	}

	// Bridge probability change touches nothing.
	up := apply(ugraph.Delta{SetProb: []ugraph.ProbUpdate{{Edge: 6, P: 0.9}}})
	if up.CompMap[0] < 0 || up.CompMap[1] < 0 || up.Index != idx {
		t.Fatalf("bridge prob change touched comps: CompMap=%v", up.CompMap)
	}
	// Non-bridge probability change touches exactly its component.
	up = apply(ugraph.Delta{SetProb: []ugraph.ProbUpdate{{Edge: 0, P: 0.9}}})
	c0 := idx.Comp[0]
	if up.CompMap[c0] >= 0 || up.CompMap[1-c0] < 0 {
		t.Fatalf("non-bridge prob change touched CompMap=%v, want only comp %d", up.CompMap, c0)
	}
	// Parallel re-add over the bridge merges both components.
	up = apply(ugraph.Delta{Add: []ugraph.Edge{{U: 2, V: 3, P: 0.5}}})
	if up.CompMap[0] >= 0 || up.CompMap[1] >= 0 || up.Index.NumComps != 1 {
		t.Fatalf("bridge re-add: CompMap=%v comps=%d", up.CompMap, up.Index.NumComps)
	}
	// Removing the bridge touches nothing and keeps both components.
	up = apply(ugraph.Delta{Remove: []int{6}})
	if up.CompMap[0] < 0 || up.CompMap[1] < 0 || up.Index.NumComps != 2 {
		t.Fatalf("bridge removal: CompMap=%v comps=%d", up.CompMap, up.Index.NumComps)
	}
	// Removing a triangle edge splits nothing but promotes the survivors
	// to bridges and touches that component only.
	up = apply(ugraph.Delta{Remove: []int{0}})
	if up.CompMap[c0] >= 0 || up.CompMap[1-c0] < 0 {
		t.Fatalf("triangle-edge removal touched CompMap=%v", up.CompMap)
	}
	// Mixed deltas: a probability edit inside a component counts even
	// when the delta also changes topology elsewhere.
	up = apply(ugraph.Delta{SetProb: []ugraph.ProbUpdate{{Edge: 0, P: 0.9}}, Remove: []int{3}})
	if up.CompMap[0] >= 0 || up.CompMap[1] >= 0 {
		t.Fatalf("mixed prob+removal delta kept CompMap=%v, want both dropped", up.CompMap)
	}
	up = apply(ugraph.Delta{SetProb: []ugraph.ProbUpdate{{Edge: 0, P: 0.9}}, Remove: []int{6}})
	c1 := 1 - c0
	if up.CompMap[c0] >= 0 || up.CompMap[c1] != up.Index.Comp[3] {
		t.Fatalf("mixed prob+bridge-removal delta: CompMap=%v, want comp %d dropped and comp %d kept", up.CompMap, c0, c1)
	}
}
