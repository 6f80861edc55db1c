package frontier

import (
	"errors"
	"math/rand/v2"
	"testing"

	"netrel/internal/order"
	"netrel/internal/ugraph"
)

func mustPlan(t *testing.T, g *ugraph.Graph, ts ugraph.Terminals, ord []int) *Plan {
	t.Helper()
	p, err := NewPlan(g, ts, ord)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// frontierAt reconstructs F_l by advancing the empty root frontier l
// layers.
func frontierAt(p *Plan, l int) []int32 {
	var cur, next []int32
	for i := 0; i < l; i++ {
		next = p.AdvanceFrontier(i, cur, next)
		cur, next = next, cur
	}
	return cur
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

func TestPlanBasics(t *testing.T) {
	g, err := ugraph.FromEdges(4, []ugraph.Edge{
		{U: 0, V: 1, P: 0.5}, {U: 1, V: 2, P: 0.5}, {U: 2, V: 3, P: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts, _ := ugraph.NewTerminals(g, []int{0, 3})
	p := mustPlan(t, g, ts, []int{0, 1, 2})
	if p.M() != 3 {
		t.Fatal("plan dimensions wrong")
	}
	if len(frontierAt(p, 0)) != 0 || len(frontierAt(p, 3)) != 0 {
		t.Fatal("first and last frontiers must be empty")
	}
	// After edge (0,1): 0 retires (no more edges), 1 stays.
	if f := frontierAt(p, 1); len(f) != 1 || f[0] != 1 {
		t.Fatalf("F_1 = %v, want [1]", f)
	}
	if p.MaxFrontier() != 1 {
		t.Fatalf("MaxFrontier = %d on a path", p.MaxFrontier())
	}
	if p.UnseenFrom(0) != 2 || p.UnseenFrom(1) != 1 || p.UnseenFrom(3) != 0 {
		t.Fatalf("unseen counts wrong: %d %d %d", p.UnseenFrom(0), p.UnseenFrom(1), p.UnseenFrom(3))
	}
}

func TestPlanRejectsBadOrder(t *testing.T) {
	g, _ := ugraph.FromEdges(2, []ugraph.Edge{{U: 0, V: 1, P: 0.5}})
	ts, _ := ugraph.NewTerminals(g, []int{0, 1})
	if _, err := NewPlan(g, ts, []int{0, 0}); err == nil {
		t.Fatal("duplicate order accepted")
	}
	if _, err := NewPlan(g, ts, []int{}); err == nil {
		t.Fatal("short order accepted")
	}
	if _, err := NewPlan(g, ts, []int{1}); err == nil {
		t.Fatal("out-of-range order accepted")
	}
}

func TestPlanRejectsIsolatedTerminal(t *testing.T) {
	g := ugraph.New(3)
	if _, err := g.AddEdge(0, 1, 0.5); err != nil {
		t.Fatal(err)
	}
	ts, _ := ugraph.NewTerminals(g, []int{0, 2})
	if _, err := NewPlan(g, ts, []int{0}); err == nil {
		t.Fatal("terminal without edges accepted")
	}
}

// mapRefPlan is the direct frontier sweep: it rebuilds a map of every
// frontier slot at each layer, O(m·F) in all. NewPlan's Fenwick sweep
// must match it step for step.
type mapRefPlan struct {
	layers      []layerStep
	maxFrontier int
	unseenFrom  []int32 // unseenFrom[l] = #terminals with firstTouch ≥ l
	termsSorted []int32 // terminals bucketed by firstTouch
	termStart   []int32
}

func mapReference(g *ugraph.Graph, ts ugraph.Terminals, ord []int) mapRefPlan {
	m, n := g.M(), g.N()
	firstTouch := make([]int32, n)
	lastTouch := make([]int32, n)
	for v := range firstTouch {
		firstTouch[v], lastTouch[v] = int32(m), -1
	}
	for pos, ei := range ord {
		e := g.Edge(ei)
		for _, v := range [2]int{e.U, e.V} {
			if firstTouch[v] == int32(m) {
				firstTouch[v] = int32(pos)
			}
			lastTouch[v] = int32(pos)
		}
	}
	ref := mapRefPlan{unseenFrom: make([]int32, m+2), termStart: make([]int32, m+2)}
	cnt := make([]int32, m+1)
	for _, t := range ts {
		cnt[firstTouch[t]]++
	}
	for l := m; l >= 0; l-- {
		ref.unseenFrom[l] = ref.unseenFrom[l+1] + cnt[l]
	}
	for l := 0; l <= m; l++ {
		ref.termStart[l+1] = ref.termStart[l] + cnt[l]
	}
	buckets := make([][]int32, m+1)
	for _, t := range ts {
		buckets[firstTouch[t]] = append(buckets[firstTouch[t]], int32(t))
	}
	for _, b := range buckets {
		ref.termsSorted = append(ref.termsSorted, b...)
	}

	slotOf := map[int32]int32{}
	flen := 0
	for l := 0; l < m; l++ {
		e := g.Edge(ord[l])
		st := layerStep{edge: e, slotU: -1, slotV: -1, flen: int32(flen)}
		if s, ok := slotOf[int32(e.U)]; ok {
			st.slotU = s
		}
		if s, ok := slotOf[int32(e.V)]; ok {
			st.slotV = s
		}
		st.uRetires = lastTouch[e.U] == int32(l)
		st.vRetires = lastTouch[e.V] == int32(l)
		ref.layers = append(ref.layers, st)

		cur := make([]int32, flen)
		for v, s := range slotOf {
			cur[s] = v
		}
		var next []int32
		for _, v := range cur {
			if (v == int32(e.U) && st.uRetires) || (v == int32(e.V) && st.vRetires) {
				continue
			}
			next = append(next, v)
		}
		if st.slotU == -1 && !st.uRetires {
			next = append(next, int32(e.U))
		}
		if st.slotV == -1 && !st.vRetires && e.V != e.U {
			next = append(next, int32(e.V))
		}
		clear(slotOf)
		for s, v := range next {
			slotOf[v] = int32(s)
		}
		flen = len(next)
		ref.maxFrontier = max(ref.maxFrontier, flen)
	}
	return ref
}

// messyGraph is randConnected plus what real inputs carry: self-loops,
// parallel edges and vertices with no edge at all.
func messyGraph(r *rand.Rand, n, extra int) *ugraph.Graph {
	g := randConnected(r, n, extra)
	h := ugraph.New(n + r.IntN(3))
	edges := append([]ugraph.Edge(nil), g.Edges()...)
	for i := r.IntN(4); i > 0; i-- {
		v := r.IntN(n)
		edges = append(edges, ugraph.Edge{U: v, V: v, P: 0.5})
	}
	for i := r.IntN(4); i > 0; i-- {
		edges = append(edges, edges[r.IntN(len(edges))])
	}
	r.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	for _, e := range edges {
		if _, err := h.AddEdge(e.U, e.V, e.P); err != nil {
			panic(err)
		}
	}
	return h
}

// TestPlanMatchesMapReference pins the Fenwick sweep of NewPlan to the map
// sweep it replaced: every layer's slots, retire flags and width, the
// maximum width and the unseen terminals at every layer, under random
// permutations and every order strategy.
func TestPlanMatchesMapReference(t *testing.T) {
	r := rand.New(rand.NewPCG(22, 7))
	strategies := []order.Strategy{order.Natural, order.BFS, order.DFS, order.Degree, order.RCM}
	for trial := 0; trial < 400; trial++ {
		n := 2 + r.IntN(40)
		g := messyGraph(r, n, r.IntN(3*n))
		var ord []int
		if trial%(len(strategies)+1) == len(strategies) {
			ord = r.Perm(g.M())
		} else {
			ord = order.Compute(g, strategies[trial%(len(strategies)+1)], r.IntN(n))
		}
		ts, err := ugraph.NewTerminals(g, r.Perm(n)[:1+r.IntN(n)])
		if err != nil {
			t.Fatal(err)
		}
		p := mustPlan(t, g, ts, ord)
		ref := mapReference(g, ts, ord)
		for l := range ref.layers {
			if p.layers[l] != ref.layers[l] {
				t.Fatalf("trial %d layer %d: step %+v, reference %+v", trial, l, p.layers[l], ref.layers[l])
			}
		}
		if len(p.layers) != len(ref.layers) || p.MaxFrontier() != ref.maxFrontier {
			t.Fatalf("trial %d: %d layers of max width %d, reference %d of %d",
				trial, len(p.layers), p.MaxFrontier(), len(ref.layers), ref.maxFrontier)
		}
		for l := 0; l <= g.M()+1; l++ {
			if p.UnseenFrom(l) != int(ref.unseenFrom[l]) {
				t.Fatalf("trial %d: UnseenFrom(%d) = %d, reference %d", trial, l, p.UnseenFrom(l), ref.unseenFrom[l])
			}
			got, want := p.UnseenTerms(l), ref.termsSorted[ref.termStart[l]:]
			if len(got) != len(want) {
				t.Fatalf("trial %d: UnseenTerms(%d) = %v, reference %v", trial, l, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d: UnseenTerms(%d) = %v, reference %v", trial, l, got, want)
				}
			}
		}
	}
}

// TestStepMatchesPlan checks each layer's Step against the plan: its
// slots and retire flags are the layer's, its width is |F_{l+1}| as
// AdvanceFrontier builds it, its unseen count is UnseenFrom(l+1), and its
// terminal flags are the endpoints'.
func TestStepMatchesPlan(t *testing.T) {
	r := rand.New(rand.NewPCG(28, 3))
	for trial := 0; trial < 200; trial++ {
		n := 2 + r.IntN(30)
		g := messyGraph(r, n, r.IntN(3*n))
		ts, err := ugraph.NewTerminals(g, r.Perm(n)[:1+r.IntN(n)])
		if err != nil {
			t.Fatal(err)
		}
		p := mustPlan(t, g, ts, r.Perm(g.M()))
		isTerm := map[int]bool{}
		for _, v := range ts {
			isTerm[v] = true
		}
		var cur, next []int32
		for l := 0; l < g.M(); l++ {
			st, ls := p.Step(l), p.layers[l]
			next = p.AdvanceFrontier(l, cur, next)
			if st.Edge != ls.edge || st.SlotU != ls.slotU || st.SlotV != ls.slotV ||
				st.URetires != ls.uRetires || st.VRetires != ls.vRetires ||
				st.UTerm != isTerm[ls.edge.U] || st.VTerm != isTerm[ls.edge.V] ||
				st.Width != len(next) || st.Unseen != p.UnseenFrom(l+1) {
				t.Fatalf("trial %d layer %d: step %+v, layer %+v, next frontier %v", trial, l, st, ls, next)
			}
			cur, next = next, cur
		}
	}
}

// doubleStar joins hub 0 to every leaf, then hub 1 to every leaf, in edge
// order: the frontier holds every leaf from the first hub's last edge to
// the second hub's first, so its width is the leaf count.
func doubleStar(leaves int) *ugraph.Graph {
	g := ugraph.New(leaves + 2)
	for hub := 0; hub < 2; hub++ {
		for v := 2; v < leaves+2; v++ {
			if _, err := g.AddEdge(hub, v, 0.5); err != nil {
				panic(err)
			}
		}
	}
	return g
}

func TestPlanRejectsTooWideFrontier(t *testing.T) {
	for _, leaves := range []int{MaxFrontierWidth, MaxFrontierWidth + 1} {
		g := doubleStar(leaves)
		ts, _ := ugraph.NewTerminals(g, []int{0, 1})
		p, err := NewPlan(g, ts, order.Compute(g, order.Natural, 0))
		if leaves <= MaxFrontierWidth {
			if err != nil || p.MaxFrontier() != leaves {
				t.Fatalf("%d leaves: err %v, want a plan of width %d", leaves, err, leaves)
			}
			continue
		}
		if !errors.Is(err, ErrFrontierTooWide) {
			t.Fatalf("%d leaves: err %v, want ErrFrontierTooWide", leaves, err)
		}
	}
}

// TestNewPlanAllocsIndependentOfM guards the sweep against per-layer
// allocation: a plan costs the same handful of allocations at any size.
func TestNewPlanAllocsIndependentOfM(t *testing.T) {
	const maxAllocs = 12
	r := rand.New(rand.NewPCG(3, 4))
	for _, n := range []int{1000, 4000} {
		g := randConnected(r, n, 2*n)
		ts, _ := ugraph.NewTerminals(g, []int{0, n / 2, n - 1})
		ord := order.Compute(g, order.BFS, 0)
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := NewPlan(g, ts, ord); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > maxAllocs {
			t.Fatalf("m = %d: NewPlan made %v allocations, want at most %d", g.M(), allocs, maxAllocs)
		}
	}
}
