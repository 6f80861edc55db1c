package preprocess

import (
	"context"
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"netrel/internal/ugraph"
	"netrel/internal/unionfind"
)

// TestBridgeForestMatchesNaive checks the component labels, the rooted
// bridge forest and the per-component lists against bridges found by
// deletion: components are the graph's without its bridges, numbered in
// order of their smallest vertex; every non-root component hangs from its
// parent by a bridge joining the two, one level deeper and in the same
// tree; every bridge hangs exactly one component; two components share a
// root exactly when one graph component holds both; and each list is
// ascending and holds exactly its component's vertices, or its non-bridge
// edges.
func TestBridgeForestMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewPCG(26, 2))
	for trial := 0; trial < 500; trial++ {
		g := messyForest(r)
		idx := BuildIndex(g)
		bridge := naiveBridges(g)
		if !slices.Equal(idx.IsBridge, bridge) {
			t.Fatalf("trial %d: IsBridge %v, naive %v", trial, idx.IsBridge, bridge)
		}
		graphComp, twoEdge := unionfind.NewArena(g.N()), unionfind.NewArena(g.N())
		for ei, e := range g.Edges() {
			graphComp.Union(e.U, e.V)
			if !bridge[ei] {
				twoEdge.Union(e.U, e.V)
			}
		}
		// Components are numbered in order of their smallest vertex.
		label := map[int]int32{}
		for v := 0; v < g.N(); v++ {
			r := twoEdge.Find(v)
			if _, ok := label[r]; !ok {
				label[r] = int32(len(label))
			}
			if idx.Comp[v] != label[r] {
				t.Fatalf("trial %d: Comp[%d] = %d, want %d", trial, v, idx.Comp[v], label[r])
			}
		}
		if idx.NumComps != len(label) {
			t.Fatalf("trial %d: NumComps = %d, want %d", trial, idx.NumComps, len(label))
		}
		// Any vertex of each component stands for it.
		rep := make([]int, idx.NumComps)
		for v, c := range idx.Comp {
			rep[c] = v
		}

		hung := make([]int, g.M())
		for c, node := range idx.tree {
			if node.up < 0 {
				if node.upEdge != -1 || node.depth != 0 || node.root != int32(c) {
					t.Fatalf("trial %d: root component %d is %+v", trial, c, node)
				}
				continue
			}
			e := g.Edge(int(node.upEdge))
			ends := []int32{idx.Comp[e.U], idx.Comp[e.V]}
			if !bridge[node.upEdge] || !slices.Contains(ends, int32(c)) || !slices.Contains(ends, node.up) {
				t.Fatalf("trial %d: component %d hangs from %d by edge %d %v (bridge %v)",
					trial, c, node.up, node.upEdge, e, bridge[node.upEdge])
			}
			hung[node.upEdge]++
			parent := idx.tree[node.up]
			if node.depth != parent.depth+1 || node.root != parent.root {
				t.Fatalf("trial %d: component %d is %+v under %+v", trial, c, node, parent)
			}
		}
		for ei, b := range bridge {
			if b != (hung[ei] == 1) || hung[ei] > 1 {
				t.Fatalf("trial %d: bridge %v edge %d hangs %d components", trial, b, ei, hung[ei])
			}
		}
		for a := range rep {
			for b := range rep {
				same := graphComp.Find(rep[a]) == graphComp.Find(rep[b])
				if same != (idx.tree[a].root == idx.tree[b].root) {
					t.Fatalf("trial %d: components %d and %d share a graph component %v, roots %d and %d",
						trial, a, b, same, idx.tree[a].root, idx.tree[b].root)
				}
			}
		}

		var verts, edges []int32
		for c := 0; c < idx.NumComps; c++ {
			vs := idx.verts[idx.vertStart[c]:idx.vertStart[c+1]]
			es := idx.edges[idx.edgeStart[c]:idx.edgeStart[c+1]]
			if !slices.IsSorted(vs) || !slices.IsSorted(es) {
				t.Fatalf("trial %d: component %d lists %v and %v are not ascending", trial, c, vs, es)
			}
			for _, v := range vs {
				if idx.Comp[v] != int32(c) {
					t.Fatalf("trial %d: vertex %d of component %d listed under %d", trial, v, idx.Comp[v], c)
				}
			}
			for _, ei := range es {
				if e := g.Edge(int(ei)); bridge[ei] || idx.Comp[e.U] != int32(c) || idx.Comp[e.V] != int32(c) {
					t.Fatalf("trial %d: edge %d %v (bridge %v) listed under %d", trial, ei, e, bridge[ei], c)
				}
			}
			verts, edges = append(verts, vs...), append(edges, es...)
		}
		slices.Sort(verts)
		slices.Sort(edges)
		var wantEdges []int32
		for ei, b := range bridge {
			if !b {
				wantEdges = append(wantEdges, int32(ei))
			}
		}
		if len(verts) != g.N() || len(edges) != len(wantEdges) || !slices.Equal(edges, wantEdges) {
			t.Fatalf("trial %d: lists hold %d vertices and edges %v; want %d and %v",
				trial, len(verts), edges, g.N(), wantEdges)
		}
		for i, v := range verts {
			if v != int32(i) {
				t.Fatalf("trial %d: vertex lists %v are not a partition", trial, verts)
			}
		}
	}
}

// TestRetainedBytesCountsEveryArray pins RetainedBytes to the index's
// arrays: with n vertices, m edges, b bridges and c components, a bridge
// flag per edge, the bridge list, a label per vertex, a forest node per
// component, and the vertex and edge lists with c+1 offsets each.
func TestRetainedBytesCountsEveryArray(t *testing.T) {
	r := rand.New(rand.NewPCG(26, 3))
	for trial := 0; trial < 50; trial++ {
		g := messyForest(r)
		idx := BuildIndex(g)
		n, m, b, c := int64(g.N()), int64(g.M()), int64(len(idx.Bridges)), int64(idx.NumComps)
		if len(idx.tree) != int(c) || len(idx.vertStart) != int(c+1) || len(idx.edgeStart) != int(c+1) ||
			len(idx.verts) != int(n) || len(idx.edges) != int(m-b) {
			t.Fatalf("trial %d: array lengths %d %d %d %d %d for n=%d m=%d b=%d c=%d", trial,
				len(idx.tree), len(idx.vertStart), len(idx.edgeStart), len(idx.verts), len(idx.edges), n, m, b, c)
		}
		want := m + 8*b + 4*n + int64(unsafe.Sizeof(treeNode{}))*c + 4*(c+1+n) + 4*(c+1+m-b)
		if got := idx.RetainedBytes(); got != want {
			t.Fatalf("trial %d: RetainedBytes = %d, want %d", trial, got, want)
		}
	}
	var none *Index
	if none.RetainedBytes() != 0 {
		t.Fatal("a nil index retains bytes")
	}
}

// TestRunCostIndependentOfGraphSize plans two terminals of a 4-cycle that
// carries a pendant tree of size vertices: a prebuilt index must make the
// plan's allocations, count and bytes alike, the same for 100 pendant
// vertices as for 10,000.
func TestRunCostIndependentOfGraphSize(t *testing.T) {
	cost := func(size int) (allocs, bytes uint64) {
		r := rand.New(rand.NewPCG(26, 4))
		g := ugraph.New(4 + size)
		for v := 0; v < 4; v++ {
			if _, err := g.AddEdge(v, (v+1)%4, 0.9); err != nil {
				t.Fatal(err)
			}
		}
		for v := 4; v < 4+size; v++ {
			if _, err := g.AddEdge(r.IntN(v), v, 0.9); err != nil {
				t.Fatal(err)
			}
		}
		idx := BuildIndex(g)
		ts, err := ugraph.NewTerminals(g, []int{0, 2})
		if err != nil {
			t.Fatal(err)
		}
		return allocsPerCall(func() {
			if _, err := RunContext(context.Background(), g, ts, idx); err != nil {
				t.Fatal(err)
			}
		})
	}
	smallAllocs, smallBytes := cost(100)
	bigAllocs, bigBytes := cost(10_000)
	if smallAllocs != bigAllocs || smallBytes != bigBytes {
		t.Fatalf("plan costs %d allocs, %d B with 100 pendant vertices; %d allocs, %d B with 10,000",
			smallAllocs, smallBytes, bigAllocs, bigBytes)
	}
}

// allocsPerCall counts f's heap allocations and bytes per call the way
// testing.AllocsPerRun counts allocations, but keeps the least of five
// rounds: an allocation elsewhere in the process only ever adds.
func allocsPerCall(f func()) (allocs, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	const runs = 100
	allocs, bytes = math.MaxUint64, math.MaxUint64
	for round := 0; round < 5; round++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		allocs = min(allocs, (after.Mallocs-before.Mallocs)/runs)
		bytes = min(bytes, (after.TotalAlloc-before.TotalAlloc)/runs)
	}
	return allocs, bytes
}
