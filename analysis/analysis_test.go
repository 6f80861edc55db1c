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

// TestSTReliabilityMatchesExact holds the s-t answers of a refined Search
// to the exact value: on a chain of bridges the S2BDD pipeline decomposes
// the s-t query into certain factors, so the borderline end vertex comes
// back refined with reliability 0.9⁴ exactly, not a sampled estimate.
func TestSTReliabilityMatchesExact(t *testing.T) {
	g := chain(t, 5, 0.9)
	want := math.Pow(0.9, 4)
	res, err := Search(g, 0, 0.65, Options{Samples: 1000, Seed: 1, Refine: true, RefineSamples: 1000})
	if err != nil {
		t.Fatal(err)
	}
	for _, vr := range res {
		if vr.Vertex != 4 {
			continue
		}
		if !vr.Refined {
			t.Fatalf("vertex 4 at %v was not refined; the test needs it in the borderline band", vr.Reliability)
		}
		if math.Abs(vr.Reliability-want) > 1e-9 {
			t.Fatalf("s-t reliability %v, want %v (chain decomposes exactly)", vr.Reliability, want)
		}
		return
	}
	t.Fatalf("vertex 4 (reliability %v ≥ threshold 0.65) missing from %v", want, res)
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

// TestSearchRefineMatchesSoloQueries holds Search's batched refinement to
// the solo answers: on Karate at a threshold with several borderline
// vertices, each refined entry is bit-identical to Session.Reliability
// with the same options, and exactly the borderline vertices whose solo
// answer reaches the threshold are admitted as refined.
func TestSearchRefineMatchesSoloQueries(t *testing.T) {
	g := datasets.Karate(1)
	const source, threshold = 0, 0.87
	opt := Options{Samples: 500, Seed: 3, Workers: 2, Refine: true, RefineSamples: 2000}
	res, err := Search(g, source, threshold, opt)
	if err != nil {
		t.Fatal(err)
	}
	refined := map[int]float64{}
	for _, vr := range res {
		if vr.Refined {
			refined[vr.Vertex] = vr.Reliability
		}
	}

	// The borderline band, recomputed from the shared pass.
	opt = opt.withDefaults()
	counts := reachFrequencies(toUgraph(g), source, opt)
	s := float64(opt.Samples)
	se := math.Sqrt(threshold*(1-threshold)/s) + 1e-12
	solo := netrel.NewSession(g)
	borderline, admitted := 0, 0
	for v, c := range counts {
		if v == source || math.Abs(float64(c)/s-threshold) >= opt.RefineBand*se {
			continue
		}
		borderline++
		want, err := solo.Reliability([]int{source, v},
			netrel.WithSamples(opt.RefineSamples), netrel.WithSeed(opt.Seed), netrel.WithWorkers(opt.Workers))
		if err != nil {
			t.Fatal(err)
		}
		got, ok := refined[v]
		if ok != (want.Reliability >= threshold) || ok && got != want.Reliability {
			t.Fatalf("vertex %d: refined %v (admitted %v), solo query %v", v, got, ok, want.Reliability)
		}
		if ok {
			admitted++
		}
	}
	if admitted != len(refined) {
		t.Fatalf("%d refined entries, %d borderline vertices admitted", len(refined), admitted)
	}
	if admitted < 2 {
		t.Fatalf("threshold %v admits %d of %d borderline vertices; the test needs at least two", threshold, admitted, borderline)
	}
	t.Logf("%d borderline vertices, %d admitted", borderline, admitted)
}

// FuzzReachMatchesMonteCarlo checks the shared sampling pass against the
// baseline: on a graph of up to 12 vertices read from the input, each
// vertex's count over s ≤ 300 worlds is netrel.MonteCarlo's estimate for
// {source, v} at the same seed, bit for bit, on 1, 2 or 5 workers.
func FuzzReachMatchesMonteCarlo(f *testing.F) {
	f.Add([]byte{9, 0, 0, 1, 200, 1, 2, 200, 2, 3, 200, 3, 4, 0, 4, 5, 255, 0, 5, 100}, uint64(1), uint16(299), uint8(0))
	f.Add([]byte{12, 7, 7, 8, 128, 7, 8, 128, 0, 1, 30, 2, 3, 255}, uint64(9), uint16(129), uint8(2))
	f.Add([]byte{1, 0}, uint64(3), uint16(5), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, seed uint64, samples uint16, pick uint8) {
		if len(data) < 2 {
			return
		}
		n := 1 + int(data[0])%12
		source := int(data[1]) % n
		s := 1 + int(samples)%300
		workers := []int{1, 2, 5}[int(pick)%3]
		g := netrel.NewGraph(n)
		for rest := data[2:]; len(rest) >= 3; rest = rest[3:] {
			u, v := int(rest[0])%n, int(rest[1])%n
			if u == v {
				continue
			}
			p := float64(rest[2]) / 255
			if p == 0 {
				p = math.Ldexp(1, -60)
			}
			if err := g.AddEdge(u, v, p); err != nil {
				t.Fatal(err)
			}
		}
		counts := reachFrequencies(toUgraph(g), source, Options{Samples: s, Seed: seed, Workers: workers})
		for v, c := range counts {
			mc, err := netrel.MonteCarlo(g, []int{source, v},
				netrel.WithSamples(s), netrel.WithSeed(seed), netrel.WithWorkers(workers))
			if err != nil {
				t.Fatal(err)
			}
			if got := float64(c) / float64(s); got != mc.Reliability {
				t.Fatalf("n=%d m=%d source %d s=%d workers %d: vertex %d reached in %v of the worlds, MonteCarlo %v",
					n, g.M(), source, s, workers, v, got, mc.Reliability)
			}
		}
	})
}

// BenchmarkAnalysisTopK times the shared sampling pass behind TopK: the
// top 10 from vertex 0 over 2,000 worlds on one worker, Small datasets.
func BenchmarkAnalysisTopK(b *testing.B) {
	for _, name := range []string{"Karate", "Tokyo", "DBLP1", "Hit-d"} {
		g, err := datasets.Generate(name, datasets.Small, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := TopK(g, 0, 10, Options{Samples: 2000, Seed: 1, Workers: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
