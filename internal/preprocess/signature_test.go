package preprocess

import (
	"context"
	"testing"

	"netrel/internal/ugraph"
)

func mustGraph(t *testing.T, n int, edges []ugraph.Edge) *ugraph.Graph {
	t.Helper()
	g, err := ugraph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func mustTerms(t *testing.T, g *ugraph.Graph, ts []int) ugraph.Terminals {
	t.Helper()
	out, err := ugraph.NewTerminals(g, ts)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSignDistinguishesInputs(t *testing.T) {
	base := []ugraph.Edge{{U: 0, V: 1, P: 0.5}, {U: 1, V: 2, P: 0.6}, {U: 0, V: 2, P: 0.7}}
	g := mustGraph(t, 3, base)
	ts := mustTerms(t, g, []int{0, 2})

	same := Sign(mustGraph(t, 3, base), mustTerms(t, g, []int{0, 2}))
	if Sign(g, ts) != same {
		t.Fatal("identical inputs produced different signatures")
	}

	otherTerms := Sign(g, mustTerms(t, g, []int{0, 1}))
	if Sign(g, ts) == otherTerms {
		t.Fatal("different terminal sets share a signature")
	}

	perturbed := append([]ugraph.Edge(nil), base...)
	perturbed[1].P = 0.61
	if Sign(g, ts) == Sign(mustGraph(t, 3, perturbed), ts) {
		t.Fatal("different probabilities share a signature")
	}

	reordered := []ugraph.Edge{base[1], base[0], base[2]}
	if Sign(g, ts) == Sign(mustGraph(t, 3, reordered), ts) {
		t.Fatal("edge order must be part of the signature: the S2BDD's input depends on it")
	}
}

// triangleChain builds three triangles joined by two bridges:
// {0,1,2} -(2,3)- {3,4,5} -(5,6)- {6,7,8}.
func triangleChain(t *testing.T) *ugraph.Graph {
	t.Helper()
	// Per-block probabilities differ so distinct blocks stay distinct even
	// after the transform rewrites collapse each triangle to a single edge
	// (blocks with identical probabilities would legitimately share one
	// canonical subproblem).
	var edges []ugraph.Edge
	for b := 0; b < 3; b++ {
		v := 3 * b
		d := 0.01 * float64(b)
		edges = append(edges,
			ugraph.Edge{U: v, V: v + 1, P: 0.5 + d},
			ugraph.Edge{U: v + 1, V: v + 2, P: 0.6 + d},
			ugraph.Edge{U: v, V: v + 2, P: 0.7 + d},
		)
	}
	edges = append(edges, ugraph.Edge{U: 2, V: 3, P: 0.9}, ugraph.Edge{U: 5, V: 6, P: 0.8})
	return mustGraph(t, 9, edges)
}

func TestSharedSubproblemsAcrossQueriesShareSignatures(t *testing.T) {
	g := triangleChain(t)
	idx := BuildIndex(g)

	run := func(ts []int) *Result {
		res, err := RunContext(context.Background(), g, mustTerms(t, g, ts), idx)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	// Both queries connect the first block to vertex 8; they differ only in
	// which first-block vertex is the terminal, so the middle and last
	// blocks decompose identically.
	a := run([]int{0, 8})
	b := run([]int{1, 8})
	if len(a.Subproblems) != 3 || len(b.Subproblems) != 3 {
		t.Fatalf("want 3 subproblems each, got %d and %d", len(a.Subproblems), len(b.Subproblems))
	}
	sigs := func(r *Result) map[Signature]bool {
		out := make(map[Signature]bool, len(r.Subproblems))
		for _, s := range r.Subproblems {
			out[s.Sig] = true
		}
		return out
	}
	shared := 0
	bs := sigs(b)
	for sig := range sigs(a) {
		if bs[sig] {
			shared++
		}
	}
	if shared != 2 {
		t.Fatalf("want the middle and last blocks shared (2 signatures), got %d", shared)
	}
}

func TestBridgesCounted(t *testing.T) {
	g := triangleChain(t)
	res, err := RunContext(context.Background(), g, mustTerms(t, g, []int{0, 8}), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bridges != 2 {
		t.Fatalf("Bridges = %d, want 2 (both chain bridges are kept)", res.Bridges)
	}

	// Terminals inside one block keep no bridges.
	res, err = RunContext(context.Background(), g, mustTerms(t, g, []int{3, 5}), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bridges != 0 {
		t.Fatalf("Bridges = %d, want 0 for an intra-block query", res.Bridges)
	}
}

// TestSignTerminalsDedupKey checks the plan-dedup key of a terminal set,
// SignSpec with no evidence.
func TestSignTerminalsDedupKey(t *testing.T) {
	g := mustGraph(t, 6, []ugraph.Edge{{U: 0, V: 1, P: 0.5}, {U: 1, V: 2, P: 0.5},
		{U: 2, V: 3, P: 0.5}, {U: 3, V: 4, P: 0.5}, {U: 4, V: 5, P: 0.5}})
	sign := func(ts []int) Signature { return SignSpec(0, mustTerms(t, g, ts), nil) }

	// NewTerminals canonicalizes (sorts, dedups), so permutations and
	// repeats of one set share a signature — the plan-dedup contract.
	a := sign([]int{0, 3, 5})
	if b := sign([]int{5, 0, 3, 0}); a != b {
		t.Fatal("canonically equal terminal sets got different signatures")
	}
	seen := map[Signature]bool{a: true}
	for _, ts := range [][]int{{0, 3}, {3, 5}, {0, 5}, {0}, {0, 1, 2, 3, 4, 5}} {
		s := sign(ts)
		if seen[s] {
			t.Fatalf("terminal set %v collided with an earlier signature", ts)
		}
		seen[s] = true
	}
	if SignSpec(1, mustTerms(t, g, []int{0, 3, 5}), nil) == a {
		t.Fatal("the mode does not participate in the signature")
	}

	// Domain separation: a plan signature must not equal the subproblem
	// signature of the same terminals (they key different caches).
	if ts := mustTerms(t, g, []int{0, 3, 5}); SignSpec(0, ts, nil) == Sign(g, ts) {
		t.Fatal("plan and subproblem signature domains overlap")
	}
}
