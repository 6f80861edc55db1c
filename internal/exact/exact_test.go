package exact

import (
	"context"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"netrel/internal/core"
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

func terms(t *testing.T, g *ugraph.Graph, vs ...int) ugraph.Terminals {
	t.Helper()
	ts, err := ugraph.NewTerminals(g, vs)
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

// randConnected builds a random connected uncertain graph: a random spanning
// tree plus extra random edges.
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

func randTerminals(r *rand.Rand, g *ugraph.Graph, k int) ugraph.Terminals {
	perm := r.Perm(g.N())
	ts, err := ugraph.NewTerminals(g, perm[:k])
	if err != nil {
		panic(err)
	}
	return ts
}

func TestSingleEdgeTwoTerminals(t *testing.T) {
	g := mustGraph(t, 2, []ugraph.Edge{{U: 0, V: 1, P: 0.73}})
	ts := terms(t, g, 0, 1)
	for name, fn := range engines() {
		r, err := fn(g, ts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if math.Abs(r.Float64()-0.73) > 1e-12 {
			t.Errorf("%s: R = %v, want 0.73", name, r.Float64())
		}
	}
}

func engines() map[string]func(*ugraph.Graph, ugraph.Terminals) (v xfloatF, err error) {
	return map[string]func(*ugraph.Graph, ugraph.Terminals) (xfloatF, error){
		"bruteforce": func(g *ugraph.Graph, ts ugraph.Terminals) (xfloatF, error) {
			return BruteForce(g, ts)
		},
		"factoring": func(g *ugraph.Graph, ts ugraph.Terminals) (xfloatF, error) {
			return FactoringContext(context.Background(), g, ts, 0)
		},
	}
}

// xfloatF aliases the return type to keep the engines map tidy.
type xfloatF = interface {
	Float64() float64
}

func TestTrianglePairReliability(t *testing.T) {
	// Triangle p=0.5, terminals {0,1}:
	// R = p01 + (1−p01)·p02·p12 = 0.5 + 0.5·0.25 = 0.625.
	g := mustGraph(t, 3, []ugraph.Edge{{U: 0, V: 1, P: 0.5}, {U: 1, V: 2, P: 0.5}, {U: 0, V: 2, P: 0.5}})
	ts := terms(t, g, 0, 1)
	for name, fn := range engines() {
		r, err := fn(g, ts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if math.Abs(r.Float64()-0.625) > 1e-12 {
			t.Errorf("%s: R = %v, want 0.625", name, r.Float64())
		}
	}
}

func TestTriangleAllTerminals(t *testing.T) {
	// Triangle p=0.5, all three terminals: connected iff ≥2 edges exist.
	// R = 3·(0.25·0.5) + 0.125 = 0.5.
	g := mustGraph(t, 3, []ugraph.Edge{{U: 0, V: 1, P: 0.5}, {U: 1, V: 2, P: 0.5}, {U: 0, V: 2, P: 0.5}})
	ts := terms(t, g, 0, 1, 2)
	for name, fn := range engines() {
		r, err := fn(g, ts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if math.Abs(r.Float64()-0.5) > 1e-12 {
			t.Errorf("%s: R = %v, want 0.5", name, r.Float64())
		}
	}
}

func TestPathSeriesReliability(t *testing.T) {
	// Path 0-1-2-3 with probabilities 0.9, 0.8, 0.7; terminals {0,3}:
	// R = 0.9·0.8·0.7 = 0.504.
	g := mustGraph(t, 4, []ugraph.Edge{{U: 0, V: 1, P: 0.9}, {U: 1, V: 2, P: 0.8}, {U: 2, V: 3, P: 0.7}})
	ts := terms(t, g, 0, 3)
	for name, fn := range engines() {
		r, err := fn(g, ts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if math.Abs(r.Float64()-0.504) > 1e-12 {
			t.Errorf("%s: R = %v, want 0.504", name, r.Float64())
		}
	}
}

func TestParallelEdges(t *testing.T) {
	// Two parallel edges 0-1 with p=0.5 each: R = 1−0.25 = 0.75.
	g := mustGraph(t, 2, []ugraph.Edge{{U: 0, V: 1, P: 0.5}, {U: 0, V: 1, P: 0.5}})
	ts := terms(t, g, 0, 1)
	for name, fn := range engines() {
		r, err := fn(g, ts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if math.Abs(r.Float64()-0.75) > 1e-12 {
			t.Errorf("%s: R = %v, want 0.75", name, r.Float64())
		}
	}
}

func TestSingleTerminalIsAlwaysOne(t *testing.T) {
	g := mustGraph(t, 3, []ugraph.Edge{{U: 0, V: 1, P: 0.1}, {U: 1, V: 2, P: 0.1}})
	ts := terms(t, g, 1)
	for name, fn := range engines() {
		r, err := fn(g, ts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if math.Abs(r.Float64()-1) > 1e-12 {
			t.Errorf("%s: R = %v, want 1", name, r.Float64())
		}
	}
}

func TestDisconnectedTerminalsZero(t *testing.T) {
	g := mustGraph(t, 4, []ugraph.Edge{{U: 0, V: 1, P: 0.9}, {U: 2, V: 3, P: 0.9}})
	ts := terms(t, g, 0, 3)
	for name, fn := range engines() {
		r, err := fn(g, ts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !math.Signbit(r.Float64()) && r.Float64() != 0 {
			t.Errorf("%s: R = %v, want 0", name, r.Float64())
		}
	}
}

func TestBridgeDecomposesExactly(t *testing.T) {
	// Two triangles joined by a bridge 2-3 (p=0.6); terminals {0, 5}.
	// R = R_tri(0..2; {0,2}) · 0.6 · R_tri(3..5; {3,5}), each tri = 0.625.
	edges := []ugraph.Edge{
		{U: 0, V: 1, P: 0.5}, {U: 1, V: 2, P: 0.5}, {U: 0, V: 2, P: 0.5},
		{U: 2, V: 3, P: 0.6},
		{U: 3, V: 4, P: 0.5}, {U: 4, V: 5, P: 0.5}, {U: 3, V: 5, P: 0.5},
	}
	g := mustGraph(t, 6, edges)
	ts := terms(t, g, 0, 5)
	want := 0.625 * 0.6 * 0.625
	for name, fn := range engines() {
		r, err := fn(g, ts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if math.Abs(r.Float64()-want) > 1e-12 {
			t.Errorf("%s: R = %v, want %v", name, r.Float64(), want)
		}
	}
}

func TestBruteForceRejectsLargeGraphs(t *testing.T) {
	g := ugraph.New(30)
	for v := 0; v < 29; v++ {
		if _, err := g.AddEdge(v, v+1, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	ts := terms(t, g, 0, 29)
	if _, err := BruteForce(g, ts); err == nil {
		t.Fatal("expected ErrTooLarge")
	}
}

func TestFactoringBudgetExhaustion(t *testing.T) {
	r := rand.New(rand.NewPCG(5, 5))
	g := randConnected(r, 12, 20)
	ts := randTerminals(r, g, 4)
	if _, err := FactoringContext(context.Background(), g, ts, 3); err == nil {
		t.Fatal("expected budget exhaustion error")
	}
}

// TestPropertyFactoringMatchesBruteForce is the central cross-check: the two
// independent exact engines must agree on random graphs.
func TestPropertyFactoringMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewPCG(99, 7))
	f := func(_ int) bool {
		n := 2 + r.IntN(6)
		g := randConnected(r, n, r.IntN(6))
		if g.M() > 20 {
			return true
		}
		k := 1 + r.IntN(n)
		ts := randTerminals(r, g, k)
		bf, err := BruteForce(g, ts)
		if err != nil {
			return false
		}
		fa, err := FactoringContext(context.Background(), g, ts, 0)
		if err != nil {
			return false
		}
		diff := bf.Sub(fa).Abs().Float64()
		if diff > 1e-10 {
			t.Logf("n=%d m=%d k=%d: brute=%v factor=%v", n, g.M(), k, bf.Float64(), fa.Float64())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}

// grid returns a rows×cols grid graph whose edges all have probability p.
func grid(rows, cols int, p float64) *ugraph.Graph {
	g := ugraph.New(rows * cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			v := r*cols + c
			if c+1 < cols {
				if _, err := g.AddEdge(v, v+1, p); err != nil {
					panic(err)
				}
			}
			if r+1 < rows {
				if _, err := g.AddEdge(v, v+cols, p); err != nil {
					panic(err)
				}
			}
		}
	}
	return g
}

// TestFactoringHandlesModerateGraphs checks Factoring on grids with
// corner terminals: a 3×4 grid (17 edges) against brute force over its
// 2^17 worlds, and a 4×4 grid (24 edges), whose 2^24 worlds would take
// seconds, against the exact BDD baseline: a core S2BDD construction with
// no width bound, exact-only, and early termination and the heuristic off.
func TestFactoringHandlesModerateGraphs(t *testing.T) {
	g := grid(3, 4, 0.9)
	ts := terms(t, g, 0, 11)
	fa, err := FactoringContext(context.Background(), g, ts, 0)
	if err != nil {
		t.Fatal(err)
	}
	bf, err := BruteForce(g, ts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(bf.Float64()-fa.Float64()) > 1e-10 {
		t.Fatalf("3×4 grid: factoring %v vs brute force %v", fa.Float64(), bf.Float64())
	}

	g = grid(4, 4, 0.9)
	ts = terms(t, g, 0, 15)
	fa, err = FactoringContext(context.Background(), g, ts, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := fa.Float64()
	if got <= 0.9 || got >= 1 {
		t.Fatalf("4×4 grid reliability %v outside plausible range (0.9, 1)", got)
	}
	s, err := core.NewSampler(context.Background(), g, ts, core.Config{
		MaxWidth:                math.MaxInt,
		ExactOnly:               true,
		DisableEarlyTermination: true,
		DisableHeuristic:        true,
		Workers:                 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact || math.Abs(res.Estimate-got) > 1e-10 {
		t.Fatalf("4×4 grid: factoring %v vs exact BDD %v (exact %v)", got, res.Estimate, res.Exact)
	}
}

func BenchmarkFactoringGrid4x4(b *testing.B) {
	g := grid(4, 4, 0.9)
	ts, _ := ugraph.NewTerminals(g, []int{0, 15})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FactoringContext(context.Background(), g, ts, 0); err != nil {
			b.Fatal(err)
		}
	}
}
