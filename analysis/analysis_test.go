package analysis

import (
	"math"
	"reflect"
	"testing"

	"netrel"
	"netrel/datasets"
)

// chain builds 0-1-2-...-n-1 with probability p per edge.
func chain(t *testing.T, n int, p float64) *netrel.Graph {
	t.Helper()
	g := netrel.NewGraph(n)
	for v := 0; v+1 < n; v++ {
		if err := g.AddEdge(v, v+1, p); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestSearchOnChain(t *testing.T) {
	// Chain with p=0.8: reliability from vertex 0 to vertex d is 0.8^d.
	// Threshold 0.5 admits d ≤ 3 (0.8³=0.512) and rejects d ≥ 4 (0.41).
	g := chain(t, 8, 0.8)
	res, err := Search(g, 0, 0.5, Options{Samples: 20000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	got := map[int]bool{}
	for _, vr := range res {
		got[vr.Vertex] = true
	}
	for _, want := range []int{1, 2, 3} {
		if !got[want] {
			t.Errorf("vertex %d missing from search result", want)
		}
	}
	for _, reject := range []int{5, 6, 7} {
		if got[reject] {
			t.Errorf("vertex %d wrongly admitted", reject)
		}
	}
	// Results must be sorted by reliability descending.
	for i := 1; i < len(res); i++ {
		if res[i].Reliability > res[i-1].Reliability {
			t.Fatal("results not sorted")
		}
	}
}

func TestSearchRefineBorderline(t *testing.T) {
	// Vertex 4 sits at 0.8⁴ ≈ 0.41; with threshold 0.41 it is borderline.
	// Refined runs decide it with the S2BDD, which is exact on a chain:
	// 0.4096 < 0.41 ⇒ rejected, deterministically.
	g := chain(t, 6, 0.8)
	res, err := Search(g, 0, 0.41, Options{Samples: 3000, Seed: 2, Refine: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, vr := range res {
		if vr.Vertex == 4 {
			t.Fatalf("vertex 4 admitted at 0.41 threshold despite R=0.4096 (refined=%v)", vr.Refined)
		}
	}
	// And with a threshold just below, it must be admitted.
	res, err = Search(g, 0, 0.4090, Options{Samples: 3000, Seed: 2, Refine: true})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, vr := range res {
		if vr.Vertex == 4 {
			found = true
			if !vr.Refined {
				t.Log("vertex 4 admitted by sampling alone (band missed it); acceptable")
			}
		}
	}
	if !found {
		t.Fatal("vertex 4 rejected at 0.4090 threshold despite R=0.4096")
	}
}

func TestSearchErrors(t *testing.T) {
	g := chain(t, 4, 0.5)
	if _, err := Search(g, -1, 0.5, Options{}); err == nil {
		t.Error("bad source accepted")
	}
	if _, err := Search(g, 0, 0, Options{}); err == nil {
		t.Error("zero threshold accepted")
	}
	if _, err := Search(g, 0, 1, Options{}); err == nil {
		t.Error("threshold 1 accepted")
	}
}

func TestTopKOrdering(t *testing.T) {
	g := chain(t, 6, 0.7)
	top, err := TopK(g, 0, 3, Options{Samples: 20000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 3 {
		t.Fatalf("got %d results", len(top))
	}
	// Nearest chain vertices are the most reliable, in order.
	if top[0].Vertex != 1 || top[1].Vertex != 2 || top[2].Vertex != 3 {
		t.Fatalf("top-3 = %v", top)
	}
	if _, err := TopK(g, 0, 0, Options{}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := TopK(g, 99, 1, Options{}); err == nil {
		t.Error("bad source accepted")
	}
	// k larger than the graph truncates.
	all, err := TopK(g, 0, 100, Options{Samples: 1000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 5 {
		t.Fatalf("k overflow returned %d", len(all))
	}
}

func TestSTReliabilityMatchesExact(t *testing.T) {
	g := chain(t, 5, 0.9)
	res, err := STReliability(g, 0, 4, netrel.WithSamples(1000), netrel.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	want := math.Pow(0.9, 4)
	if math.Abs(res.Reliability-want) > 1e-9 {
		t.Fatalf("s-t reliability %v, want %v (chain decomposes exactly)", res.Reliability, want)
	}
	if !res.Exact {
		t.Fatal("chain s-t query should be exact via bridge decomposition")
	}
}

func TestClusterTwoCommunities(t *testing.T) {
	// Two dense 6-cliques joined by one feeble edge: k=2 clustering must
	// split along the communities.
	g := netrel.NewGraph(12)
	clique := func(off int) {
		for i := 0; i < 6; i++ {
			for j := i + 1; j < 6; j++ {
				if err := g.AddEdge(off+i, off+j, 0.9); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	clique(0)
	clique(6)
	if err := g.AddEdge(0, 6, 0.05); err != nil {
		t.Fatal(err)
	}

	cl, err := Cluster(g, 2, Options{Samples: 4000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(cl.Centers) != 2 {
		t.Fatalf("centers = %v", cl.Centers)
	}
	// All of 0..5 must share an assignment, and all of 6..11 the other.
	first := cl.Assign[0]
	for v := 1; v < 6; v++ {
		if cl.Assign[v] != first {
			t.Fatalf("community split: vertex %d assigned %d, want %d", v, cl.Assign[v], first)
		}
	}
	second := cl.Assign[6]
	if second == first {
		t.Fatal("both communities in one cluster")
	}
	for v := 7; v < 12; v++ {
		if cl.Assign[v] != second {
			t.Fatalf("community split: vertex %d assigned %d, want %d", v, cl.Assign[v], second)
		}
	}
	sizes := cl.Sizes()
	if sizes[0]+sizes[1] != 12 {
		t.Fatalf("sizes = %v", sizes)
	}
	if got := len(cl.Members(first)) + len(cl.Members(second)); got != 12 {
		t.Fatalf("members cover %d vertices", got)
	}
	if cl.MinReliability < 0 || cl.MinReliability > 1 {
		t.Fatalf("MinReliability = %v", cl.MinReliability)
	}
}

func TestClusterErrors(t *testing.T) {
	g := chain(t, 4, 0.5)
	if _, err := Cluster(g, 0, Options{}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := Cluster(g, 5, Options{}); err == nil {
		t.Error("k>n accepted")
	}
}

func TestClusterKEqualsN(t *testing.T) {
	g := chain(t, 4, 0.5)
	cl, err := Cluster(g, 4, Options{Samples: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(cl.Centers) != 4 {
		t.Fatalf("centers = %v", cl.Centers)
	}
}

func TestSearchDeterministicPerSeed(t *testing.T) {
	g := chain(t, 10, 0.7)
	a, err := Search(g, 0, 0.3, Options{Samples: 5000, Seed: 9, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Search(g, 0, 0.3, Options{Samples: 5000, Seed: 9, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatal("nondeterministic result size")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nondeterministic results")
		}
	}
}

// TestWorkerCountInvariance holds the analyses to the module's
// determinism contract: a fixed seed gives the same answer for any
// Workers value.
func TestWorkerCountInvariance(t *testing.T) {
	g := datasets.Karate(1)
	run := func(workers int) (search, top []VertexReliability, cl *Clustering) {
		opt := Options{Samples: 3000, Seed: 1, Workers: workers}
		search, err := Search(g, 0, 0.5, opt)
		if err != nil {
			t.Fatal(err)
		}
		top, err = TopK(g, 0, 5, opt)
		if err != nil {
			t.Fatal(err)
		}
		cl, err = Cluster(g, 3, opt)
		if err != nil {
			t.Fatal(err)
		}
		return search, top, cl
	}
	search1, top1, cl1 := run(1)
	for _, w := range []int{2, 5} {
		search, top, cl := run(w)
		if !reflect.DeepEqual(search, search1) {
			t.Errorf("Search with %d workers = %v, with 1 = %v", w, search, search1)
		}
		if !reflect.DeepEqual(top, top1) {
			t.Errorf("TopK with %d workers = %v, with 1 = %v", w, top, top1)
		}
		if !reflect.DeepEqual(cl, cl1) {
			t.Errorf("Cluster with %d workers = %+v, with 1 = %+v", w, cl, cl1)
		}
	}
}
