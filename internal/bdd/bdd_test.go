// Package bdd_test checks the paper's exact BDD baseline (Section 3.2.1):
// the classic frontier BDD, which runs as a core S2BDD construction with
// no width bound, exact-only, and early termination and the heuristic
// switched off (the configuration BDDExact uses). The package holds tests
// only; the baseline has no code of its own.
package bdd_test

import (
	"context"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"netrel/internal/core"
	"netrel/internal/exact"
	"netrel/internal/order"
	"netrel/internal/ugraph"
)

// compute runs the exact BDD baseline on g under the given edge order.
func compute(g *ugraph.Graph, ts ugraph.Terminals, ord []int) (core.Result, error) {
	s, err := core.NewSampler(context.Background(), g, ts, core.Config{
		MaxWidth:                math.MaxInt,
		Order:                   ord,
		ExactOnly:               true,
		DisableEarlyTermination: true,
		DisableHeuristic:        true,
		Workers:                 1,
	})
	if err != nil {
		return core.Result{}, err
	}
	return s.Result()
}

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

func TestKnownTriangle(t *testing.T) {
	g, _ := ugraph.FromEdges(3, []ugraph.Edge{
		{U: 0, V: 1, P: 0.5}, {U: 1, V: 2, P: 0.5}, {U: 0, V: 2, P: 0.5},
	})
	ts, _ := ugraph.NewTerminals(g, []int{0, 1})
	res, err := compute(g, ts, order.Compute(g, order.Natural, ts[0]))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.EstimateX.Float64()-0.625) > 1e-12 {
		t.Fatalf("R = %v, want 0.625", res.EstimateX.Float64())
	}
	if !res.Exact || res.LayersProcessed != 3 || res.NodesCreated < 1 {
		t.Fatalf("stats wrong: %+v", res)
	}
}

func TestSingleTerminal(t *testing.T) {
	g, _ := ugraph.FromEdges(2, []ugraph.Edge{{U: 0, V: 1, P: 0.1}})
	ts, _ := ugraph.NewTerminals(g, []int{1})
	res, err := compute(g, ts, order.Compute(g, order.Natural, ts[0]))
	if err != nil {
		t.Fatal(err)
	}
	if res.EstimateX.Float64() != 1 {
		t.Fatalf("k=1 must give R=1, got %v", res.EstimateX.Float64())
	}
}

func TestDisconnectedTerminalsGiveZero(t *testing.T) {
	g, _ := ugraph.FromEdges(4, []ugraph.Edge{
		{U: 0, V: 1, P: 0.9}, {U: 2, V: 3, P: 0.9},
	})
	ts, _ := ugraph.NewTerminals(g, []int{0, 2})
	res, err := compute(g, ts, order.Compute(g, order.Natural, ts[0]))
	if err != nil {
		t.Fatal(err)
	}
	if !res.EstimateX.IsZero() {
		t.Fatalf("R = %v, want 0", res.EstimateX.Float64())
	}
}

// TestPropertyMatchesBruteForce validates merging: the merged BDD must give
// the same reliability as exhaustive enumeration on random graphs, orders,
// and terminal counts.
func TestPropertyMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewPCG(31, 41))
	strategies := []order.Strategy{order.Natural, order.BFS, order.DFS, order.Degree}
	f := func(_ int) bool {
		n := 2 + r.IntN(7)
		g := randConnected(r, n, r.IntN(8))
		if g.M() > 18 {
			return true
		}
		k := 1 + r.IntN(n)
		perm := r.Perm(n)
		ts, err := ugraph.NewTerminals(g, perm[:k])
		if err != nil {
			return false
		}
		want, err := exact.BruteForce(g, ts)
		if err != nil {
			return false
		}
		ord := order.Compute(g, strategies[r.IntN(len(strategies))], ts[0])
		res, err := compute(g, ts, ord)
		if err != nil {
			t.Log(err)
			return false
		}
		if res.EstimateX.Sub(want).Abs().Float64() > 1e-10 {
			t.Logf("n=%d m=%d k=%d: got %v want %v",
				n, g.M(), k, res.EstimateX.Float64(), want.Float64())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}
