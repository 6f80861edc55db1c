package preprocess

import (
	"context"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"netrel/internal/exact"
	"netrel/internal/ugraph"
	"netrel/internal/unionfind"
	"netrel/internal/xfloat"
)

func randConnected(r *rand.Rand, n, extra int) *ugraph.Graph {
	g := ugraph.New(n)
	for v := 1; v < n; v++ {
		if _, err := g.AddEdge(r.IntN(v), v, 0.05+0.9*r.Float64()); err != nil {
			panic(err)
		}
	}
	for i := 0; i < extra; i++ {
		u, v := r.IntN(n), r.IntN(n)
		if u == v {
			continue
		}
		if _, err := g.AddEdge(u, v, 0.05+0.9*r.Float64()); err != nil {
			panic(err)
		}
	}
	return g
}

// naiveBridges finds bridges by deletion: an edge is a bridge iff removing
// it increases the number of connected components.
func naiveBridges(g *ugraph.Graph) []bool {
	base := countComponents(g, -1)
	out := make([]bool, g.M())
	for ei := range g.Edges() {
		if g.Edge(ei).U == g.Edge(ei).V {
			continue
		}
		if countComponents(g, ei) > base {
			out[ei] = true
		}
	}
	return out
}

func countComponents(g *ugraph.Graph, skipEdge int) int {
	d := unionfind.NewArena(g.N())
	comps := g.N()
	for ei, e := range g.Edges() {
		if ei != skipEdge && d.Union(e.U, e.V) {
			comps--
		}
	}
	return comps
}

func TestPropertyBridgesMatchNaive(t *testing.T) {
	r := rand.New(rand.NewPCG(61, 67))
	f := func(_ int) bool {
		n := 2 + r.IntN(12)
		g := randConnected(r, n, r.IntN(12))
		idx := BuildIndex(g)
		want := naiveBridges(g)
		for ei := range want {
			if idx.IsBridge[ei] != want[ei] {
				t.Logf("edge %d (%v): got %v want %v", ei, g.Edge(ei), idx.IsBridge[ei], want[ei])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBridgesWithParallelEdges(t *testing.T) {
	g := ugraph.New(3)
	// Parallel pair 0-1 (not bridges) plus single 1-2 (bridge).
	for _, e := range []ugraph.Edge{{U: 0, V: 1, P: 0.5}, {U: 0, V: 1, P: 0.5}, {U: 1, V: 2, P: 0.5}} {
		if _, err := g.AddEdge(e.U, e.V, e.P); err != nil {
			t.Fatal(err)
		}
	}
	idx := BuildIndex(g)
	if idx.IsBridge[0] || idx.IsBridge[1] {
		t.Fatal("parallel edges flagged as bridges")
	}
	if !idx.IsBridge[2] {
		t.Fatal("bridge not detected")
	}
	if idx.NumComps != 2 {
		t.Fatalf("NumComps = %d, want 2", idx.NumComps)
	}
}

func TestTwoTrianglesBridge(t *testing.T) {
	// Triangles {0,1,2} and {3,4,5} joined by bridge 2-3.
	edges := []ugraph.Edge{
		{U: 0, V: 1, P: 0.5}, {U: 1, V: 2, P: 0.5}, {U: 0, V: 2, P: 0.5},
		{U: 2, V: 3, P: 0.6},
		{U: 3, V: 4, P: 0.5}, {U: 4, V: 5, P: 0.5}, {U: 3, V: 5, P: 0.5},
	}
	g, err := ugraph.FromEdges(6, edges)
	if err != nil {
		t.Fatal(err)
	}
	ts, _ := ugraph.NewTerminals(g, []int{0, 5})
	res, err := RunContext(context.Background(), g, ts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.PB.Float64()-0.6) > 1e-12 {
		t.Fatalf("PB = %v, want 0.6", res.PB.Float64())
	}
	if len(res.Subproblems) != 2 {
		t.Fatalf("subproblems = %d, want 2", len(res.Subproblems))
	}
	for _, sub := range res.Subproblems {
		if len(sub.Terminals) != 2 {
			t.Fatalf("subproblem terminals = %d, want 2", len(sub.Terminals))
		}
	}
}

func TestPruneDropsIrrelevantBranch(t *testing.T) {
	// Path 0-1-2 with a dangling triangle {3,4,5} hanging off vertex 1.
	// Terminals {0,2}: the triangle must be pruned entirely.
	edges := []ugraph.Edge{
		{U: 0, V: 1, P: 0.9}, {U: 1, V: 2, P: 0.9},
		{U: 1, V: 3, P: 0.9},
		{U: 3, V: 4, P: 0.9}, {U: 4, V: 5, P: 0.9}, {U: 3, V: 5, P: 0.9},
	}
	g, _ := ugraph.FromEdges(6, edges)
	ts, _ := ugraph.NewTerminals(g, []int{0, 2})
	res, err := RunContext(context.Background(), g, ts, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The whole terminal path is bridges: R = 0.9·0.9 exactly, no
	// subproblems remain.
	if len(res.Subproblems) != 0 {
		t.Fatalf("subproblems = %d, want 0", len(res.Subproblems))
	}
	if math.Abs(res.PB.Float64()-0.81) > 1e-12 {
		t.Fatalf("PB = %v, want 0.81", res.PB.Float64())
	}
}

func TestDisconnectedTerminalsDetected(t *testing.T) {
	g, _ := ugraph.FromEdges(4, []ugraph.Edge{
		{U: 0, V: 1, P: 0.9}, {U: 2, V: 3, P: 0.9},
	})
	ts, _ := ugraph.NewTerminals(g, []int{0, 2})
	res, err := RunContext(context.Background(), g, ts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Disconnected {
		t.Fatal("disconnection not detected")
	}
}

func TestSingleTerminalTrivial(t *testing.T) {
	g, _ := ugraph.FromEdges(3, []ugraph.Edge{{U: 0, V: 1, P: 0.5}, {U: 1, V: 2, P: 0.5}})
	ts, _ := ugraph.NewTerminals(g, []int{1})
	res, err := RunContext(context.Background(), g, ts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Subproblems) != 0 || res.PB.Cmp(xfloat.One) != 0 {
		t.Fatalf("k=1 result not trivial: %+v", res)
	}
}

func TestTransformSeries(t *testing.T) {
	// Path of three edges, terminals at the ends: transform contracts the
	// interior into a single edge of probability p1·p2·p3.
	g, _ := ugraph.FromEdges(4, []ugraph.Edge{
		{U: 0, V: 1, P: 0.9}, {U: 1, V: 2, P: 0.8}, {U: 2, V: 3, P: 0.7},
	})
	ts, _ := ugraph.NewTerminals(g, []int{0, 3})
	res, err := RunContext(context.Background(), g, ts, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Every edge is a bridge: PB = 0.504, no subproblems. (Series collapse
	// happens implicitly through decomposition here.)
	want := 0.9 * 0.8 * 0.7
	total := res.PB
	for _, sub := range res.Subproblems {
		r, err := exact.BruteForce(sub.G, sub.Terminals)
		if err != nil {
			t.Fatal(err)
		}
		total = total.Mul(r)
	}
	if math.Abs(total.Float64()-want) > 1e-12 {
		t.Fatalf("R = %v, want %v", total.Float64(), want)
	}
}

func TestTransformParallelAndLoop(t *testing.T) {
	// Two vertices, three parallel edges: transform must merge them into
	// one edge of probability 1-(1-p)³ inside the subproblem.
	g := ugraph.New(2)
	for i := 0; i < 3; i++ {
		if _, err := g.AddEdge(0, 1, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	ts, _ := ugraph.NewTerminals(g, []int{0, 1})
	res, err := RunContext(context.Background(), g, ts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Subproblems) != 1 {
		t.Fatalf("subproblems = %d, want 1", len(res.Subproblems))
	}
	sub := res.Subproblems[0]
	if sub.G.M() != 1 {
		t.Fatalf("transformed edges = %d, want 1", sub.G.M())
	}
	want := 1 - math.Pow(0.5, 3)
	if math.Abs(sub.G.Edge(0).P-want) > 1e-12 {
		t.Fatalf("merged p = %v, want %v", sub.G.Edge(0).P, want)
	}
}

// TestPropertyReliabilityPreserved is the extension technique's soundness
// property: brute force on the original equals PB times the product of
// brute force over the decomposed, transformed subproblems.
func TestPropertyReliabilityPreserved(t *testing.T) {
	r := rand.New(rand.NewPCG(71, 73))
	f := func(_ int) bool {
		n := 2 + r.IntN(8)
		g := randConnected(r, n, r.IntN(6))
		if g.M() > 18 {
			return true
		}
		k := 2 + r.IntN(n-1)
		if k > n {
			k = n
		}
		perm := r.Perm(n)
		ts, err := ugraph.NewTerminals(g, perm[:k])
		if err != nil {
			return false
		}
		want, err := exact.BruteForce(g, ts)
		if err != nil {
			return false
		}
		res, err := RunContext(context.Background(), g, ts, nil)
		if err != nil {
			t.Log(err)
			return false
		}
		got := xfloat.Zero
		if !res.Disconnected {
			got = res.PB
			for _, sub := range res.Subproblems {
				if sub.G.M() > 22 {
					return true // skip rare blowups of the brute-force check
				}
				ri, err := exact.BruteForce(sub.G, sub.Terminals)
				if err != nil {
					t.Log(err)
					return false
				}
				got = got.Mul(ri)
			}
		}
		if got.Sub(want).Abs().Float64() > 1e-10 {
			t.Logf("n=%d m=%d k=%d: got %v want %v (subs=%d pb=%v)",
				n, g.M(), k, got.Float64(), want.Float64(), len(res.Subproblems), res.PB.Float64())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsPopulated(t *testing.T) {
	r := rand.New(rand.NewPCG(81, 83))
	g := randConnected(r, 30, 10)
	perm := r.Perm(30)
	ts, _ := ugraph.NewTerminals(g, perm[:4])
	res, err := RunContext(context.Background(), g, ts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.OriginalEdges != g.M() || res.OriginalVertices != g.N() {
		t.Fatal("original stats wrong")
	}
	if res.ReducedRatio < 0 || res.ReducedRatio > 1 {
		t.Fatalf("ReducedRatio = %v", res.ReducedRatio)
	}
}

func TestIndexReuse(t *testing.T) {
	r := rand.New(rand.NewPCG(91, 93))
	g := randConnected(r, 15, 10)
	idx := BuildIndex(g)
	ts1, _ := ugraph.NewTerminals(g, []int{0, 5})
	ts2, _ := ugraph.NewTerminals(g, []int{3, 9, 12})
	a, err := RunContext(context.Background(), g, ts1, idx)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunContext(context.Background(), g, ts1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.PB.Cmp(b.PB) != 0 || len(a.Subproblems) != len(b.Subproblems) {
		t.Fatal("index reuse changed the result")
	}
	if _, err := RunContext(context.Background(), g, ts2, idx); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBuildIndexGrid(b *testing.B) {
	g := ugraph.New(50 * 50)
	id := func(r, c int) int { return r*50 + c }
	for r := 0; r < 50; r++ {
		for c := 0; c < 50; c++ {
			if c+1 < 50 {
				_, _ = g.AddEdge(id(r, c), id(r, c+1), 0.5)
			}
			if r+1 < 50 {
				_, _ = g.AddEdge(id(r, c), id(r+1, c), 0.5)
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = BuildIndex(g)
	}
}
