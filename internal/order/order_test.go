package order

import (
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"netrel/internal/frontier"
	"netrel/internal/ugraph"
)

// maxFrontier is the widest frontier of ord on g, as the S2BDD's
// frontier plan measures it.
func maxFrontier(t *testing.T, g *ugraph.Graph, ord []int) int {
	t.Helper()
	p, err := frontier.NewPlan(g, nil, ord)
	if err != nil {
		t.Fatal(err)
	}
	return p.MaxFrontier()
}

func grid(t *testing.T, rows, cols int) *ugraph.Graph {
	t.Helper()
	g := ugraph.New(rows * cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				if _, err := g.AddEdge(id(r, c), id(r, c+1), 0.5); err != nil {
					t.Fatal(err)
				}
			}
			if r+1 < rows {
				if _, err := g.AddEdge(id(r, c), id(r+1, c), 0.5); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return g
}

func randConnected(r *rand.Rand, n, extra int) *ugraph.Graph {
	g := ugraph.New(n)
	for v := 1; v < n; v++ {
		u := r.IntN(v)
		if _, err := g.AddEdge(u, v, 0.5); err != nil {
			panic(err)
		}
	}
	for i := 0; i < extra; i++ {
		u, v := r.IntN(n), r.IntN(n)
		if u == v {
			continue
		}
		if _, err := g.AddEdge(u, v, 0.5); err != nil {
			panic(err)
		}
	}
	return g
}

func allStrategies() []Strategy {
	return []Strategy{Natural, BFS, DFS, Degree, RCM}
}

// isPerm reports whether ord is a permutation of 0..m-1.
func isPerm(m int, ord []int) bool {
	sorted := slices.Clone(ord)
	slices.Sort(sorted)
	for i, v := range sorted {
		if v != i {
			return false
		}
	}
	return len(sorted) == m
}

func TestAllStrategiesProducePermutations(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 1))
	for trial := 0; trial < 30; trial++ {
		g := randConnected(r, 2+r.IntN(20), r.IntN(15))
		for _, st := range allStrategies() {
			if ord := Compute(g, st, -1); !isPerm(g.M(), ord) {
				t.Fatalf("strategy %v: %v is not a permutation", st, ord)
			}
		}
	}
}

func TestPropertyPermutation(t *testing.T) {
	r := rand.New(rand.NewPCG(2, 2))
	f := func(_ int) bool {
		g := randConnected(r, 2+r.IntN(15), r.IntN(10))
		st := allStrategies()[r.IntN(len(allStrategies()))]
		start := -1
		if r.IntN(2) == 0 {
			start = r.IntN(g.N())
		}
		return isPerm(g.M(), Compute(g, st, start))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBFSBeatsNaturalShuffledOnGrid(t *testing.T) {
	// On a grid with shuffled input edges, BFS ordering must yield a
	// frontier close to the grid width while the shuffled natural order is
	// much worse. This is the property S2BDD performance depends on.
	g := grid(t, 8, 8)
	// Shuffle the edges into a new graph to destroy input locality.
	r := rand.New(rand.NewPCG(3, 3))
	perm := r.Perm(g.M())
	shuffled := ugraph.New(g.N())
	for _, i := range perm {
		e := g.Edge(i)
		if _, err := shuffled.AddEdge(e.U, e.V, e.P); err != nil {
			t.Fatal(err)
		}
	}
	natural := maxFrontier(t, shuffled, Compute(shuffled, Natural, -1))
	bfs := maxFrontier(t, shuffled, Compute(shuffled, BFS, 0))
	if bfs >= natural {
		t.Fatalf("BFS frontier %d should beat shuffled natural %d", bfs, natural)
	}
	if bfs > 12 { // 8-wide grid: BFS frontier stays near one row
		t.Fatalf("BFS frontier %d too large for an 8x8 grid", bfs)
	}
}

// TestFrontierMinOnPath: a path graph reaches the minimum frontier width,
// 1, under the traversal orders.
func TestFrontierMinOnPath(t *testing.T) {
	g := ugraph.New(10)
	for v := 0; v < 9; v++ {
		if _, err := g.AddEdge(v, v+1, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	if got := maxFrontier(t, g, Compute(g, BFS, 0)); got > 1 {
		t.Fatalf("BFS frontier on path = %d", got)
	}
	if got := maxFrontier(t, g, Compute(g, RCM, -1)); got > 1 {
		t.Fatalf("RCM frontier on path = %d", got)
	}
}

func TestRCMCompetitiveOnGrid(t *testing.T) {
	// On a grid, RCM must match BFS's near-optimal frontier width.
	g := grid(t, 10, 10)
	rcm := maxFrontier(t, g, Compute(g, RCM, -1))
	bfs := maxFrontier(t, g, Compute(g, BFS, 0))
	if rcm > bfs+3 {
		t.Fatalf("RCM frontier %d much worse than BFS %d on a grid", rcm, bfs)
	}
}

func TestMaxFrontierBounds(t *testing.T) {
	r := rand.New(rand.NewPCG(4, 4))
	for trial := 0; trial < 20; trial++ {
		g := randConnected(r, 3+r.IntN(12), r.IntN(10))
		for _, st := range allStrategies() {
			got := maxFrontier(t, g, Compute(g, st, -1))
			if got < 1 || got > g.N() {
				t.Fatalf("strategy %v: frontier %d out of [1,%d]", st, got, g.N())
			}
		}
	}
}

// TestValidateRejects: the permutation check that guards every order a
// plan is built from (frontier.NewPlan) accepts what each strategy
// computes and rejects short, duplicated and out-of-range orders.
func TestValidateRejects(t *testing.T) {
	g := ugraph.New(3)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}} {
		if _, err := g.AddEdge(e[0], e[1], 0.5); err != nil {
			t.Fatal(err)
		}
	}
	ts, err := ugraph.NewTerminals(g, []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range allStrategies() {
		if _, err := frontier.NewPlan(g, ts, Compute(g, st, -1)); err != nil {
			t.Errorf("strategy %v: order rejected: %v", st, err)
		}
	}
	if _, err := frontier.NewPlan(g, ts, []int{0, 1}); err == nil {
		t.Error("short order accepted")
	}
	if _, err := frontier.NewPlan(g, ts, []int{0, 1, 1}); err == nil {
		t.Error("duplicate accepted")
	}
	if _, err := frontier.NewPlan(g, ts, []int{0, 1, 3}); err == nil {
		t.Error("out of range accepted")
	}
}

func TestStartVertexRespected(t *testing.T) {
	// Star graph: starting BFS from the hub or from a leaf both give valid
	// orders; the first edge must touch the start vertex.
	g := ugraph.New(5)
	for v := 1; v < 5; v++ {
		if _, err := g.AddEdge(0, v, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	ord := Compute(g, BFS, 3)
	first := g.Edge(ord[0])
	if first.U != 3 && first.V != 3 {
		t.Fatalf("first edge %v does not touch start vertex 3", first)
	}
}

// sortTraversalOrder is traversalOrder's reference: the edge indices
// sorted by the comparator (max endpoint position, min endpoint position,
// index), a strict total order, so any correct sort gives this permutation.
func sortTraversalOrder(g *ugraph.Graph, pos []int) []int {
	ord := make([]int, g.M())
	for i := range ord {
		ord[i] = i
	}
	key := func(i int) (int, int) {
		e := g.Edge(i)
		a, b := pos[e.U], pos[e.V]
		if a < b {
			return b, a
		}
		return a, b
	}
	sort.Slice(ord, func(x, y int) bool {
		mx, nx := key(ord[x])
		my, ny := key(ord[y])
		if mx != my {
			return mx < my
		}
		if nx != ny {
			return nx < ny
		}
		return ord[x] < ord[y]
	})
	return ord
}

// FuzzTraversalOrderMatchesSort checks traversalOrder against
// sortTraversalOrder on random multigraphs, self-loops and parallel edges
// included, under every strategy's vertex positions and under random
// positions in [0, n) with ties.
func FuzzTraversalOrderMatchesSort(f *testing.F) {
	f.Add(uint64(1), uint8(6), uint8(12))
	f.Add(uint64(2), uint8(1), uint8(3))
	f.Add(uint64(3), uint8(40), uint8(200))
	f.Add(uint64(4), uint8(9), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, n, m uint8) {
		r := rand.New(rand.NewPCG(seed, 0))
		g := ugraph.New(1 + int(n%64))
		for i := 0; i < int(m); i++ {
			u := r.IntN(g.N())
			v := u
			switch r.IntN(4) {
			case 0: // a self-loop
			case 1: // parallel to an earlier edge, if any
				if i > 0 {
					e := g.Edge(r.IntN(i))
					u, v = e.V, e.U
				}
			default:
				v = r.IntN(g.N())
			}
			if _, err := g.AddEdge(u, v, 0.5); err != nil {
				t.Fatal(err)
			}
		}
		start := r.IntN(g.N())
		ties := make([]int, g.N())
		for v := range ties {
			ties[v] = r.IntN(g.N())
		}
		for name, pos := range map[string][]int{
			"bfs":    vertexOrderBFS(g, start),
			"dfs":    vertexOrderDFS(g, start),
			"degree": vertexOrderDegree(g),
			"rcm":    vertexOrderRCM(g, start),
			"ties":   ties,
		} {
			if got, want := traversalOrder(g, pos), sortTraversalOrder(g, pos); !slices.Equal(got, want) {
				t.Fatalf("%s positions %v: traversalOrder %v, sorted %v", name, pos, got, want)
			}
		}
	})
}

func BenchmarkBFSOrderGrid(b *testing.B) {
	g := ugraph.New(100 * 100)
	id := func(r, c int) int { return r*100 + c }
	for r := 0; r < 100; r++ {
		for c := 0; c < 100; c++ {
			if c+1 < 100 {
				_, _ = g.AddEdge(id(r, c), id(r, c+1), 0.5)
			}
			if r+1 < 100 {
				_, _ = g.AddEdge(id(r, c), id(r+1, c), 0.5)
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Compute(g, BFS, 0)
	}
}
