// Package preprocess implements the paper's extension technique (Section 5):
// an index of bridges and 2-edge-connected components, and the three-phase
// reduction — prune (Steiner subtree of the bridge tree), decompose (cut at
// bridges, Lemma 5.1), and transform (series/parallel/loop rewrites) — that
// shrinks an uncertain graph while preserving its k-terminal reliability
// exactly: R[G,T] = p_b · Π R[G_i, T_i].
//
// The index is built once per graph in O(n + m). It roots the bridge tree
// (a forest when the graph is disconnected) and lists each component's
// vertices and edges, so a query's prune and decompose cost is proportional
// to the Steiner subtree of its terminals' components and the sizes of the
// components it keeps, not to the size of the graph.
package preprocess

import (
	"netrel/internal/ugraph"
)

// Index holds the 2-edge-connected-component structure of a graph. It
// depends only on topology (not probabilities or terminals), so the paper
// precomputes it once per graph. Beyond the exported labels it holds the
// rooted bridge tree and each component's vertex and edge lists, which let
// RunContext plan a query without scanning the graph.
type Index struct {
	// IsBridge marks bridge edges by edge index.
	IsBridge []bool
	// Bridges lists bridge edge indices.
	Bridges []int
	// Comp assigns each vertex its 2-edge-connected component id.
	Comp []int32
	// NumComps is the number of 2ECCs.
	NumComps int

	// tree is the bridge forest rooted at the component of each DFS root,
	// indexed by component.
	tree []treeNode
	// Component c's vertices are verts[vertStart[c]:vertStart[c+1]] and its
	// non-bridge edges (self-loops included) are
	// edges[edgeStart[c]:edgeStart[c+1]], both ascending.
	vertStart, verts []int32
	edgeStart, edges []int32
}

// treeNode is one component's place in the rooted bridge forest.
type treeNode struct {
	up     int32 // parent component, -1 at a root
	upEdge int32 // the bridge joining the component to up, -1 at a root
	depth  int32 // bridges between the component and its root
	root   int32 // the root component of its tree: one per graph component
}

// RetainedBytes reports the heap bytes the index retains — the accounting
// a registry's memory-pressure eviction sums per graph. Slice headers and
// the struct itself are noise next to the per-edge, per-vertex and
// per-component arrays and are ignored. A nil index retains nothing.
func (idx *Index) RetainedBytes() int64 {
	if idx == nil {
		return 0
	}
	return int64(len(idx.IsBridge)) + // []bool: 1 byte/edge
		8*int64(len(idx.Bridges)) + // []int
		4*int64(len(idx.Comp)) + // []int32
		16*int64(len(idx.tree)) + // four int32 per component
		4*int64(len(idx.vertStart)+len(idx.verts)+len(idx.edgeStart)+len(idx.edges))
}

// BuildIndex finds all bridges with an iterative Tarjan lowlink DFS
// (recursion would overflow on road-network-scale graphs). Parallel edges
// are handled: only the exact edge used to enter a vertex is excluded from
// back-edge consideration, so a parallel pair is never a bridge.
//
// The same DFS yields the 2ECCs and roots the bridge forest. Each component
// is a DFS subtree cut below its child bridges, entered by one tree edge: a
// bridge, or none at a DFS root. When that entry vertex finishes, the
// vertices discovered since and not yet claimed form its component, which
// takes the next provisional id; so provisional ids count in post-order,
// and read backwards they reach every component after its parent.
func BuildIndex(g *ugraph.Graph) *Index {
	n := g.N()
	m := g.M()
	idx := &Index{
		IsBridge: make([]bool, m),
		Comp:     make([]int32, n),
	}
	adjStart, adj := g.Adjacency()

	disc := make([]int32, n)
	low := make([]int32, n)
	for i := range disc {
		disc[i] = -1
	}
	type frame struct {
		v      int32
		inEdge int32 // edge index used to enter v, -1 for roots
		adjPos int32 // next adjacency position to examine
	}
	stack := make([]frame, 0, 64)
	unclaimed := make([]int32, 0, n) // discovered vertices without a component
	var entry []int32                // per provisional component: its bridge, -1 at a root
	timer := int32(0)

	for root := 0; root < n; root++ {
		if disc[root] != -1 {
			continue
		}
		disc[root] = timer
		low[root] = timer
		timer++
		stack = append(stack, frame{v: int32(root), inEdge: -1, adjPos: adjStart[root]})
		unclaimed = append(unclaimed, int32(root))
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			v := int(f.v)
			if f.adjPos < adjStart[v+1] {
				ei := adj[f.adjPos]
				f.adjPos++
				if ei == f.inEdge {
					continue // the tree edge we arrived by
				}
				e := g.Edge(int(ei))
				w := ugraph.Other(e, v)
				if w == v {
					continue // self-loop contributes nothing
				}
				if disc[w] == -1 {
					disc[w] = timer
					low[w] = timer
					timer++
					stack = append(stack, frame{v: int32(w), inEdge: ei, adjPos: adjStart[w]})
					unclaimed = append(unclaimed, int32(w))
				} else if disc[w] < low[v] {
					low[v] = disc[w]
				}
				continue
			}
			// Post-order: propagate lowlink to parent and test the bridge
			// condition.
			stack = stack[:len(stack)-1]
			in := f.inEdge
			if in >= 0 {
				e := g.Edge(int(in))
				parent := ugraph.Other(e, v)
				if low[v] < low[parent] {
					low[parent] = low[v]
				}
				if low[v] <= disc[parent] {
					continue // v's component continues through parent
				}
				idx.IsBridge[in] = true
			}
			k := int32(len(entry))
			entry = append(entry, in)
			for {
				u := unclaimed[len(unclaimed)-1]
				unclaimed = unclaimed[:len(unclaimed)-1]
				idx.Comp[u] = k
				if u == int32(v) {
					break
				}
			}
		}
	}

	// Canonical ids number components in order of their smallest vertex;
	// disc, no longer needed, maps provisional ids to them.
	label := disc[:len(entry)]
	for i := range label {
		label[i] = -1
	}
	nc := int32(0)
	for v, k := range idx.Comp {
		if label[k] < 0 {
			label[k] = nc
			nc++
		}
		idx.Comp[v] = label[k]
	}
	idx.NumComps = int(nc)

	idx.tree = make([]treeNode, nc)
	for k := len(entry) - 1; k >= 0; k-- {
		c, ei := label[k], entry[k]
		if ei < 0 {
			idx.tree[c] = treeNode{up: -1, upEdge: -1, root: c}
			continue
		}
		e := g.Edge(int(ei))
		up := idx.Comp[e.U]
		if up == c {
			up = idx.Comp[e.V]
		}
		p := idx.tree[up]
		idx.tree[c] = treeNode{up: up, upEdge: ei, depth: p.depth + 1, root: p.root}
	}

	// Per-component lists by counting sort, low serving as the cursors.
	idx.vertStart, idx.verts = make([]int32, nc+1), make([]int32, n)
	idx.edgeStart = make([]int32, nc+1)
	for _, c := range idx.Comp {
		idx.vertStart[c+1]++
	}
	for ei, e := range g.Edges() {
		if idx.IsBridge[ei] {
			idx.Bridges = append(idx.Bridges, ei)
		} else {
			idx.edgeStart[idx.Comp[e.U]+1]++
		}
	}
	for c := int32(0); c < nc; c++ {
		idx.vertStart[c+1] += idx.vertStart[c]
		idx.edgeStart[c+1] += idx.edgeStart[c]
	}
	next := low[:nc]
	copy(next, idx.vertStart)
	for v, c := range idx.Comp {
		idx.verts[next[c]] = int32(v)
		next[c]++
	}
	idx.edges = make([]int32, m-len(idx.Bridges))
	copy(next, idx.edgeStart)
	for ei, e := range g.Edges() {
		if !idx.IsBridge[ei] {
			c := idx.Comp[e.U]
			idx.edges[next[c]] = int32(ei)
			next[c]++
		}
	}
	return idx
}
