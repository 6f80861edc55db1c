package netrel

import (
	"math"
	"math/rand/v2"
	"strings"
	"testing"
)

func bridgeOfTriangles(t *testing.T) *Graph {
	t.Helper()
	g, err := FromEdges(6, []Edge{
		{0, 1, 0.5}, {1, 2, 0.5}, {0, 2, 0.5},
		{2, 3, 0.6},
		{3, 4, 0.5}, {4, 5, 0.5}, {3, 5, 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

const wantBridgeTriangles = 0.625 * 0.6 * 0.625

func TestExactPipelineWithExtension(t *testing.T) {
	g := bridgeOfTriangles(t)
	res, err := Exact(g, []int{0, 5})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact {
		t.Fatal("expected exact result")
	}
	if math.Abs(res.Reliability-wantBridgeTriangles) > 1e-12 {
		t.Fatalf("R = %v, want %v", res.Reliability, wantBridgeTriangles)
	}
	if res.Subproblems != 2 {
		t.Fatalf("subproblems = %d, want 2", res.Subproblems)
	}
	if res.Preprocess == nil || res.Preprocess.ReducedRatio <= 0 {
		t.Fatalf("preprocess stats missing: %+v", res.Preprocess)
	}
	if res.Lower != res.Upper {
		t.Fatal("exact bounds must coincide")
	}

	// A chain of bridges decomposes into certain factors, so even the
	// sampling entry point answers an s-t query on it exactly.
	chain, err := FromEdges(5, []Edge{{0, 1, 0.9}, {1, 2, 0.9}, {2, 3, 0.9}, {3, 4, 0.9}})
	if err != nil {
		t.Fatal(err)
	}
	res, err = Reliability(chain, []int{0, 4}, WithSamples(1000), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if want := math.Pow(0.9, 4); !res.Exact || math.Abs(res.Reliability-want) > 1e-9 {
		t.Fatalf("chain s-t reliability %v (exact %v), want exactly %v", res.Reliability, res.Exact, want)
	}
}

func TestExactWithoutExtensionMatches(t *testing.T) {
	g := bridgeOfTriangles(t)
	res, err := Exact(g, []int{0, 5}, WithoutExtension())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Reliability-wantBridgeTriangles) > 1e-12 {
		t.Fatalf("R = %v, want %v", res.Reliability, wantBridgeTriangles)
	}
	if res.Subproblems != 1 {
		t.Fatalf("subproblems = %d, want 1", res.Subproblems)
	}
}

func TestAllMethodsAgreeOnSmallGraph(t *testing.T) {
	g := bridgeOfTriangles(t)
	terms := []int{0, 5}

	exactRes, err := Exact(g, terms)
	if err != nil {
		t.Fatal(err)
	}
	bddRes, err := BDDExact(g, terms)
	if err != nil {
		t.Fatal(err)
	}
	factRes, err := Factoring(g, terms)
	if err != nil {
		t.Fatal(err)
	}
	mcRes, err := MonteCarlo(g, terms, WithSamples(300000), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	approxRes, err := Reliability(g, terms, WithSamples(20000), WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}

	want := exactRes.Reliability
	if math.Abs(bddRes.Reliability-want) > 1e-10 {
		t.Errorf("BDD %v vs exact %v", bddRes.Reliability, want)
	}
	if math.Abs(factRes.Reliability-want) > 1e-10 {
		t.Errorf("factoring %v vs exact %v", factRes.Reliability, want)
	}
	if math.Abs(mcRes.Reliability-want) > 0.01 {
		t.Errorf("MC %v vs exact %v", mcRes.Reliability, want)
	}
	if math.Abs(approxRes.Reliability-want) > 0.02 {
		t.Errorf("S2BDD %v vs exact %v", approxRes.Reliability, want)
	}
	if approxRes.Lower > want+1e-9 || approxRes.Upper < want-1e-9 {
		t.Errorf("bounds [%v,%v] miss exact %v", approxRes.Lower, approxRes.Upper, want)
	}
}

func TestReliabilityBoundsAndEstimateOrder(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 9))
	g := NewGraph(30)
	for v := 1; v < 30; v++ {
		if err := g.AddEdge(r.IntN(v), v, 0.2+0.6*r.Float64()); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 25; i++ {
		u, v := r.IntN(30), r.IntN(30)
		if u != v {
			if err := g.AddEdge(u, v, 0.2+0.6*r.Float64()); err != nil {
				t.Fatal(err)
			}
		}
	}
	res, err := Reliability(g, []int{0, 15, 29}, WithSamples(2000), WithSeed(3), WithMaxWidth(16))
	if err != nil {
		t.Fatal(err)
	}
	if res.Lower > res.Reliability+1e-9 || res.Reliability > res.Upper+1e-9 {
		t.Fatalf("ordering violated: lower=%v est=%v upper=%v", res.Lower, res.Reliability, res.Upper)
	}
}

func TestHTOptionRuns(t *testing.T) {
	g := bridgeOfTriangles(t)
	res, err := Reliability(g, []int{0, 5},
		WithSamples(5000), WithSeed(4), WithEstimator(EstimatorHorvitzThompson))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Reliability-wantBridgeTriangles) > 0.1 {
		t.Fatalf("HT pipeline estimate %v, want ≈%v", res.Reliability, wantBridgeTriangles)
	}
}

func TestOptionValidation(t *testing.T) {
	g := bridgeOfTriangles(t)
	if _, err := Reliability(g, []int{0, 5}, WithSamples(-1)); err == nil {
		t.Error("negative samples accepted")
	}
	if _, err := Reliability(g, []int{0, 5}, WithMaxWidth(0)); err == nil {
		t.Error("zero width accepted")
	}
	if _, err := Reliability(g, []int{0, 5}, WithEstimator(Estimator(99))); err == nil {
		t.Error("bogus estimator accepted")
	}
	if _, err := Reliability(g, []int{0, 5}, WithOrdering(Ordering(99))); err == nil {
		t.Error("bogus ordering accepted")
	}
	if _, err := Reliability(g, nil); err == nil {
		t.Error("empty terminal set accepted")
	}
	if _, err := Reliability(g, []int{77}); err == nil {
		t.Error("out-of-range terminal accepted")
	}
}

func TestDisconnectedTerminalsZero(t *testing.T) {
	g, err := FromEdges(4, []Edge{{0, 1, 0.9}, {2, 3, 0.9}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Reliability(g, []int{0, 2}, WithSamples(100))
	if err != nil {
		t.Fatal(err)
	}
	if res.Reliability != 0 || !res.Exact {
		t.Fatalf("disconnected: %+v", res)
	}
	if !math.IsInf(res.Log10, -1) {
		t.Fatalf("Log10 of zero = %v", res.Log10)
	}
	// BDDExact has no preprocessing: the diagram itself must resolve all
	// mass into the 0-sink.
	bddRes, err := BDDExact(g, []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if bddRes.Reliability != 0 || !bddRes.Exact {
		t.Fatalf("disconnected BDDExact: %+v", bddRes)
	}
}

func TestSingleTerminal(t *testing.T) {
	g := bridgeOfTriangles(t)
	res, err := Reliability(g, []int{3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reliability != 1 || !res.Exact {
		t.Fatalf("k=1: %+v", res)
	}
	bddRes, err := BDDExact(g, []int{3})
	if err != nil {
		t.Fatal(err)
	}
	if bddRes.Reliability != 1 || !bddRes.Exact {
		t.Fatalf("k=1 BDDExact: %+v", bddRes)
	}
}

func TestDuplicateTerminalsCanonicalized(t *testing.T) {
	g := bridgeOfTriangles(t)
	a, err := Exact(g, []int{0, 5, 0, 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Exact(g, []int{5, 0})
	if err != nil {
		t.Fatal(err)
	}
	if a.Reliability != b.Reliability {
		t.Fatal("duplicate terminals changed the result")
	}
}

func TestGraphIO(t *testing.T) {
	g := bridgeOfTriangles(t)
	var sb strings.Builder
	if err := g.Write(&sb); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadGraph(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	a, _ := Exact(g, []int{0, 5})
	b, _ := Exact(g2, []int{0, 5})
	if a.Reliability != b.Reliability {
		t.Fatal("round-tripped graph differs")
	}
}

func TestGraphAccessors(t *testing.T) {
	g := bridgeOfTriangles(t)
	if g.N() != 6 || g.M() != 7 {
		t.Fatalf("shape %d/%d", g.N(), g.M())
	}
	if !g.Connected() {
		t.Fatal("graph should be connected")
	}
	es := g.Edges()
	if len(es) != 7 || es[3] != (Edge{2, 3, 0.6}) {
		t.Fatalf("Edges() wrong: %v", es[3])
	}
	c := g.Clone()
	if err := c.AddEdge(0, 5, 0.5); err != nil {
		t.Fatal(err)
	}
	if g.M() != 7 || c.M() != 8 {
		t.Fatal("clone not deep")
	}
	if g.AvgDegree() <= 0 || g.AvgProb() <= 0 {
		t.Fatal("stats wrong")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicPipeline(t *testing.T) {
	r := rand.New(rand.NewPCG(5, 5))
	g := NewGraph(40)
	for v := 1; v < 40; v++ {
		if err := g.AddEdge(r.IntN(v), v, 0.3+0.5*r.Float64()); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 30; i++ {
		u, v := r.IntN(40), r.IntN(40)
		if u != v {
			if err := g.AddEdge(u, v, 0.3+0.5*r.Float64()); err != nil {
				t.Fatal(err)
			}
		}
	}
	terms := []int{0, 20, 39}
	a, err := Reliability(g, terms, WithSamples(1000), WithSeed(11), WithMaxWidth(32))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Reliability(g, terms, WithSamples(1000), WithSeed(11), WithMaxWidth(32))
	if err != nil {
		t.Fatal(err)
	}
	if a.Reliability != b.Reliability || a.SamplesUsed != b.SamplesUsed {
		t.Fatalf("nondeterministic pipeline: %v vs %v", a.Reliability, b.Reliability)
	}
}

func TestTinyReliabilityLog10(t *testing.T) {
	// A 300-edge path of p=0.5 edges: R = 2^-300 ≈ 4.9e-91, below nothing
	// float64 handles fine, but the pipeline must agree in log space.
	g := NewGraph(301)
	for v := 0; v < 300; v++ {
		if err := g.AddEdge(v, v+1, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	res, err := Exact(g, []int{0, 300})
	if err != nil {
		t.Fatal(err)
	}
	want := -300 * math.Log10(2)
	if math.Abs(res.Log10-want) > 1e-6 {
		t.Fatalf("Log10 = %v, want %v", res.Log10, want)
	}
}
