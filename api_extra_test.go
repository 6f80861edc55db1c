package netrel

import (
	"math"
	"strings"
	"testing"
)

func TestMonteCarloHTBaseline(t *testing.T) {
	g := bridgeOfTriangles(t)
	res, err := MonteCarlo(g, []int{0, 5},
		WithSamples(200000), WithSeed(9), WithEstimator(EstimatorHorvitzThompson))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Reliability-wantBridgeTriangles) > 0.05 {
		t.Fatalf("HT baseline %v, want ≈%v", res.Reliability, wantBridgeTriangles)
	}
}

func TestMonteCarloWorkersOption(t *testing.T) {
	g := bridgeOfTriangles(t)
	for _, w := range []int{1, 3, 7} {
		res, err := MonteCarlo(g, []int{0, 5},
			WithSamples(100000), WithSeed(2), WithWorkers(w))
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Reliability-wantBridgeTriangles) > 0.02 {
			t.Fatalf("workers=%d: %v", w, res.Reliability)
		}
	}
}

// TestMonteCarloPublicFields pins the baseline's answer shape: trivial
// bounds [0, 1], every sample count equal to s, and never exact — with one
// terminal too — and R = 0 without error when a terminal has no edge.
func TestMonteCarloPublicFields(t *testing.T) {
	g := NewGraph(4)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}} {
		if err := g.AddEdge(e[0], e[1], 0.5); err != nil {
			t.Fatal(err)
		}
	}
	const s = 3000
	for _, est := range []Estimator{EstimatorMonteCarlo, EstimatorHorvitzThompson} {
		for _, c := range []struct {
			ts   []int
			want float64 // −1: any estimate
		}{{[]int{0, 1}, -1}, {[]int{2}, 1}, {[]int{0, 3}, 0}} {
			res, err := MonteCarlo(g, c.ts, WithSamples(s), WithSeed(4), WithEstimator(est))
			if err != nil {
				t.Fatal(err)
			}
			if res.Lower != 0 || res.Upper != 1 || res.Exact ||
				res.SamplesRequested != s || res.SamplesReduced != s || res.SamplesUsed != s {
				t.Fatalf("%v %v: %+v", est, c.ts, res)
			}
			if c.want >= 0 && res.Reliability != c.want {
				t.Fatalf("%v %v: R = %v, want %v", est, c.ts, res.Reliability, c.want)
			}
		}
	}
}

func TestBDDExactBudgetError(t *testing.T) {
	// A moderately dense random-ish graph with a tiny budget must DNF.
	g := NewGraph(40)
	for v := 1; v < 40; v++ {
		if err := g.AddEdge((v*7)%v, v, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 60; i++ {
		u, v := (i*13)%40, (i*29+7)%40
		if u != v {
			if err := g.AddEdge(u, v, 0.5); err != nil {
				t.Fatal(err)
			}
		}
	}
	_, err := BDDExact(g, []int{0, 20, 39}, WithBDDNodeBudget(10))
	if err == nil {
		t.Fatal("expected node-budget DNF error")
	}
	if !strings.Contains(err.Error(), "DNF") {
		t.Fatalf("error should mention DNF: %v", err)
	}
}

// TestMergingShrinksBDD runs BDDExact on a ladder under a 1,000-node
// budget: the merged diagram stays polynomial, while without merging
// layer l alone would hold 2^l states and the run would DNF.
func TestMergingShrinksBDD(t *testing.T) {
	g := NewGraph(20)
	for i := 0; i < 10; i++ {
		if i+1 < 10 {
			if err := g.AddEdge(i, i+1, 0.5); err != nil {
				t.Fatal(err)
			}
			if err := g.AddEdge(10+i, 10+i+1, 0.5); err != nil {
				t.Fatal(err)
			}
		}
		if err := g.AddEdge(i, 10+i, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	res, err := BDDExact(g, []int{0, 19}, WithBDDNodeBudget(1000))
	if err != nil {
		t.Fatalf("ladder BDD: %v", err)
	}
	want, err := Factoring(g, []int{0, 19})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Reliability-want.Reliability) > 1e-9 {
		t.Fatalf("ladder: BDD %v vs factoring %v", res.Reliability, want.Reliability)
	}
}

// TestGrid5x5AgainstFactoring checks BDDExact on a 40-edge grid, far
// beyond brute force, against the factoring solver.
func TestGrid5x5AgainstFactoring(t *testing.T) {
	g := NewGraph(25)
	for r := 0; r < 5; r++ {
		for c := 0; c < 5; c++ {
			if c+1 < 5 {
				if err := g.AddEdge(r*5+c, r*5+c+1, 0.8); err != nil {
					t.Fatal(err)
				}
			}
			if r+1 < 5 {
				if err := g.AddEdge(r*5+c, (r+1)*5+c, 0.8); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	res, err := BDDExact(g, []int{0, 24})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Factoring(g, []int{0, 24})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Reliability-want.Reliability) > 1e-9 {
		t.Fatalf("BDD %v vs factoring %v", res.Reliability, want.Reliability)
	}
}

func TestFactoringAgreesOnBridgeGraph(t *testing.T) {
	g := bridgeOfTriangles(t)
	res, err := Factoring(g, []int{0, 5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Reliability-wantBridgeTriangles) > 1e-12 {
		t.Fatalf("factoring %v, want %v", res.Reliability, wantBridgeTriangles)
	}
	if !res.Exact || res.Lower != res.Reliability {
		t.Fatalf("factoring result flags wrong: %+v", res)
	}
}

func TestMonteCarloLog10(t *testing.T) {
	g := bridgeOfTriangles(t)
	res, err := MonteCarlo(g, []int{0, 5}, WithSamples(10000), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Reliability > 0 && math.Abs(res.Log10-math.Log10(res.Reliability)) > 1e-12 {
		t.Fatalf("Log10 inconsistent: %v vs %v", res.Log10, math.Log10(res.Reliability))
	}
}

func TestReliabilityOnSelfLoopRejected(t *testing.T) {
	g := NewGraph(3)
	if err := g.AddEdge(0, 0, 0.5); err != nil {
		t.Fatal(err) // representation allows it; Validate rejects
	}
	if err := g.AddEdge(0, 1, 0.5); err != nil {
		t.Fatal(err)
	}
	if _, err := Reliability(g, []int{0, 1}, WithSamples(10)); err == nil {
		t.Fatal("self-loop graph accepted by the pipeline")
	}
}

func TestExactErrorMentionsWidth(t *testing.T) {
	// A dense 12x12 grid at width 4 cannot be exact.
	g := NewGraph(144)
	id := func(r, c int) int { return r*12 + c }
	for r := 0; r < 12; r++ {
		for c := 0; c < 12; c++ {
			if c+1 < 12 {
				if err := g.AddEdge(id(r, c), id(r, c+1), 0.5); err != nil {
					t.Fatal(err)
				}
			}
			if r+1 < 12 {
				if err := g.AddEdge(id(r, c), id(r+1, c), 0.5); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	_, err := Exact(g, []int{0, 143}, WithMaxWidth(4))
	if err == nil {
		t.Fatal("expected ErrNotExact-style failure")
	}
}

func TestStallOptionAffectsRun(t *testing.T) {
	// With the stall rule on (the default) or off (WithoutStall) the
	// pipeline must still produce an in-bounds estimate.
	g := NewGraph(60)
	for v := 1; v < 60; v++ {
		if err := g.AddEdge((v*3)%v, v, 0.6); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		u, v := (i*11)%60, (i*17+5)%60
		if u != v {
			if err := g.AddEdge(u, v, 0.6); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, extra := range [][]Option{nil, {WithoutStall()}} {
		opts := append([]Option{WithSamples(2000), WithSeed(8)}, extra...)
		res, err := Reliability(g, []int{0, 30, 59}, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if res.Reliability < res.Lower-1e-9 || res.Reliability > res.Upper+1e-9 {
			t.Fatalf("estimate outside bounds (%d extra options): %+v", len(extra), res)
		}
	}
}

func TestResultDurationsPopulated(t *testing.T) {
	g := bridgeOfTriangles(t)
	res, err := Reliability(g, []int{0, 5}, WithSamples(100), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Duration <= 0 {
		t.Fatal("duration not recorded")
	}
	if res.Preprocess != nil && res.Preprocess.Duration < 0 {
		t.Fatal("preprocess duration negative")
	}
}
