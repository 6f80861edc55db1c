package ugraph

import (
	"math"
	"math/rand/v2"
	"strings"
	"testing"
	"testing/quick"

	"netrel/internal/xfloat"
)

func mustGraph(t *testing.T, n int, edges []Edge) *Graph {
	t.Helper()
	g, err := FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func triangle(t *testing.T) *Graph {
	return mustGraph(t, 3, []Edge{{0, 1, 0.5}, {1, 2, 0.5}, {0, 2, 0.5}})
}

func TestAddEdgeValidation(t *testing.T) {
	g := New(3)
	if _, err := g.AddEdge(0, 3, 0.5); err == nil {
		t.Error("out-of-range vertex accepted")
	}
	if _, err := g.AddEdge(-1, 0, 0.5); err == nil {
		t.Error("negative vertex accepted")
	}
	if _, err := g.AddEdge(0, 1, 0); err == nil {
		t.Error("p=0 accepted")
	}
	if _, err := g.AddEdge(0, 1, 1.5); err == nil {
		t.Error("p>1 accepted")
	}
	if _, err := g.AddEdge(0, 1, math.NaN()); err == nil {
		t.Error("NaN probability accepted")
	}
	if _, err := g.AddEdge(0, 1, 1); err != nil {
		t.Errorf("p=1 rejected: %v", err)
	}
}

func TestAdjacency(t *testing.T) {
	g := mustGraph(t, 4, []Edge{{0, 1, 0.5}, {1, 2, 0.5}, {1, 3, 0.5}})
	start, adj := g.Adjacency()
	if g.Degree(1) != 3 {
		t.Fatalf("Degree(1) = %d", g.Degree(1))
	}
	if g.Degree(0) != 1 || g.Degree(3) != 1 {
		t.Fatal("leaf degrees wrong")
	}
	// Edges incident to vertex 1 must be exactly {0,1,2}.
	got := map[int32]bool{}
	for _, ei := range adj[start[1]:start[2]] {
		got[ei] = true
	}
	if len(got) != 3 || !got[0] || !got[1] || !got[2] {
		t.Fatalf("adjacency of 1 = %v", got)
	}
}

func TestAdjacencyInvalidatedByAddEdge(t *testing.T) {
	g := mustGraph(t, 3, []Edge{{0, 1, 0.5}})
	if g.Degree(2) != 0 {
		t.Fatal("initial degree wrong")
	}
	if _, err := g.AddEdge(1, 2, 0.5); err != nil {
		t.Fatal(err)
	}
	if g.Degree(2) != 1 {
		t.Fatal("CSR not rebuilt after AddEdge")
	}
}

func TestConnectedAndComponents(t *testing.T) {
	g := mustGraph(t, 5, []Edge{{0, 1, 0.5}, {1, 2, 0.5}, {3, 4, 0.5}})
	if g.Connected() {
		t.Fatal("disconnected graph reported connected")
	}
	if !triangle(t).Connected() {
		t.Fatal("triangle not connected")
	}
}

func TestValidateRejectsSelfLoop(t *testing.T) {
	g := New(2)
	g.edges = append(g.edges, Edge{0, 0, 0.5})
	if err := g.Validate(); err == nil {
		t.Fatal("self-loop passed Validate")
	}
}

func TestWorldProbSumsToOne(t *testing.T) {
	g := triangle(t)
	total := xfloat.Zero
	EnumerateWorlds(g, func(_ []bool, pr xfloat.F) {
		total = total.Add(pr)
	})
	if math.Abs(total.Float64()-1) > 1e-12 {
		t.Fatalf("world probabilities sum to %v", total.Float64())
	}
}

func TestPropertyWorldProbSumsToOne(t *testing.T) {
	r := rand.New(rand.NewPCG(11, 13))
	f := func(_ int) bool {
		n := 2 + r.IntN(4)
		m := 1 + r.IntN(8)
		g := New(n)
		for i := 0; i < m; i++ {
			u, v := r.IntN(n), r.IntN(n)
			if u == v {
				v = (v + 1) % n
			}
			if _, err := g.AddEdge(u, v, 0.05+0.9*r.Float64()); err != nil {
				return false
			}
		}
		total := xfloat.Zero
		EnumerateWorlds(g, func(_ []bool, pr xfloat.F) {
			total = total.Add(pr)
		})
		return math.Abs(total.Float64()-1) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestTerminalsConnected(t *testing.T) {
	g := mustGraph(t, 4, []Edge{{0, 1, 0.5}, {1, 2, 0.5}, {2, 3, 0.5}})
	ts, err := NewTerminals(g, []int{0, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !TerminalsConnected(g, ts, []bool{true, true, true}) {
		t.Fatal("path world should connect")
	}
	if TerminalsConnected(g, ts, []bool{true, false, true}) {
		t.Fatal("broken path world should disconnect")
	}
	single, _ := NewTerminals(g, []int{2})
	if !TerminalsConnected(g, single, []bool{false, false, false}) {
		t.Fatal("single terminal is always connected")
	}
}

func TestNewTerminalsValidation(t *testing.T) {
	g := triangle(t)
	if _, err := NewTerminals(g, nil); err == nil {
		t.Error("empty terminal set accepted")
	}
	if _, err := NewTerminals(g, []int{5}); err == nil {
		t.Error("out-of-range terminal accepted")
	}
	ts, err := NewTerminals(g, []int{2, 0, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 3 || ts[0] != 0 || ts[1] != 1 || ts[2] != 2 {
		t.Fatalf("canonicalization wrong: %v", ts)
	}
}

// drawWorld fills exists with one possible world: coin i (edge i) flips on
// one PCG variate, in index order.
func drawWorld(cs []Coin, rng *rand.PCG, exists []bool) {
	for i := range cs {
		exists[i] = cs[i].Heads(rng.Uint64())
	}
}

func indexOrder(g *Graph) []int {
	ord := make([]int, g.M())
	for i := range ord {
		ord[i] = i
	}
	return ord
}

func TestWorldSamplerMatchesExactOnTriangle(t *testing.T) {
	// Triangle with p=0.5 everywhere, terminals {0,1}: connected unless the
	// direct edge is absent and at least one of the other two is absent.
	// R = P(e01) + (1-P(e01))·P(e12)·P(e02) = 0.5 + 0.5·0.25 = 0.625.
	g := triangle(t)
	ts, _ := NewTerminals(g, []int{0, 1})
	cs := Coins(g, indexOrder(g))
	rng := rand.NewPCG(42, 0x9e3779b97f4a7c15)
	exists := make([]bool, g.M())
	const n = 200000
	hits := 0
	for i := 0; i < n; i++ {
		drawWorld(cs, rng, exists)
		if TerminalsConnected(g, ts, exists) {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-0.625) > 0.005 {
		t.Fatalf("sampled reliability %v, want 0.625±0.005", got)
	}
}

func TestSampleConnectedWithProbIsConsistent(t *testing.T) {
	g := mustGraph(t, 3, []Edge{{0, 1, 0.3}, {1, 2, 0.6}, {0, 2, 0.9}})
	ts, _ := NewTerminals(g, []int{0, 1, 2})
	// Every drawn world must be one of the 8 enumerated ones, with the same
	// probability and connectivity.
	type world struct {
		pr        string
		connected bool
	}
	valid := map[[3]bool]world{}
	EnumerateWorlds(g, func(exists []bool, pr xfloat.F) {
		valid[[3]bool(exists)] = world{pr.String(), TerminalsConnected(g, ts, exists)}
	})
	cs := Coins(g, indexOrder(g))
	rng := rand.NewPCG(7, 0x9e3779b97f4a7c15)
	exists := make([]bool, g.M())
	seen := map[[3]bool]bool{}
	for i := 0; i < 100; i++ {
		drawWorld(cs, rng, exists)
		want, ok := valid[[3]bool(exists)]
		if !ok {
			t.Fatalf("drawn world %v not among enumerated", exists)
		}
		if TerminalsConnected(g, ts, exists) != want.connected {
			t.Fatalf("world %v: connectivity disagrees with enumeration", exists)
		}
		seen[[3]bool(exists)] = true
	}
	if len(seen) < 2 {
		t.Fatal("expected multiple distinct worlds in 100 draws")
	}
}

func TestSamplerDeterministicBySeed(t *testing.T) {
	g := triangle(t)
	ts, _ := NewTerminals(g, []int{0, 2})
	cs := Coins(g, indexOrder(g))
	a := rand.NewPCG(99, 0x9e3779b97f4a7c15)
	b := rand.NewPCG(99, 0x9e3779b97f4a7c15)
	wa, wb := make([]bool, g.M()), make([]bool, g.M())
	for i := 0; i < 1000; i++ {
		drawWorld(cs, a, wa)
		drawWorld(cs, b, wb)
		if TerminalsConnected(g, ts, wa) != TerminalsConnected(g, ts, wb) {
			t.Fatal("same seed diverged")
		}
	}
}

func TestReadWriteTSVRoundTrip(t *testing.T) {
	g := mustGraph(t, 4, []Edge{{0, 1, 0.25}, {1, 2, 0.5}, {2, 3, 0.125}})
	var sb strings.Builder
	if err := WriteTSV(&sb, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadTSV(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != g.N() || g2.M() != g.M() {
		t.Fatalf("round trip changed shape: %d/%d vs %d/%d", g2.N(), g2.M(), g.N(), g.M())
	}
	for i := range g.Edges() {
		if g.Edge(i) != g2.Edge(i) {
			t.Fatalf("edge %d changed: %v vs %v", i, g.Edge(i), g2.Edge(i))
		}
	}
}

func TestReadTSVErrors(t *testing.T) {
	cases := map[string]string{
		"no header":         "0 1 0.5\n",
		"bad count":         "n x\n",
		"dup header":        "n 2\nn 3\n",
		"bad fields":        "n 2\n0 1\n",
		"bad prob":          "n 2\n0 1 zebra\n",
		"out of range":      "n 2\n0 5 0.5\n",
		"prob out of range": "n 2\n0 1 1.5\n",
	}
	for name, input := range cases {
		if _, err := ReadTSV(strings.NewReader(input)); err == nil {
			t.Errorf("%s: expected parse error", name)
		}
	}
	g, err := ReadTSV(strings.NewReader("# comment\n\nn 3\n0 1 0.5\n# trailing\n1 2 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 2 {
		t.Fatal("comment handling wrong")
	}
}

func TestStats(t *testing.T) {
	g := mustGraph(t, 4, []Edge{{0, 1, 0.2}, {1, 2, 0.4}, {2, 3, 0.6}})
	if got := g.AvgDegree(); math.Abs(got-1.5) > 1e-12 {
		t.Fatalf("AvgDegree = %v", got)
	}
	if got := g.AvgProb(); math.Abs(got-0.4) > 1e-12 {
		t.Fatalf("AvgProb = %v", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := triangle(t)
	c := g.Clone()
	if _, err := c.AddEdge(0, 1, 0.9); err != nil {
		t.Fatal(err)
	}
	if g.M() != 3 || c.M() != 4 {
		t.Fatal("Clone not deep")
	}
}

func TestEnumerateWorldsGuard(t *testing.T) {
	g := New(40)
	for i := 0; i < 31; i++ {
		if _, err := g.AddEdge(i, i+1, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for >30 edges")
		}
	}()
	EnumerateWorlds(g, func([]bool, xfloat.F) {})
}
