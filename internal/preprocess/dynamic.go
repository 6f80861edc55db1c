// The 2ECC index across a graph delta.
//
// The index is a pure function of topology, so a probability-only delta
// keeps it verbatim and any other delta rebuilds it with BuildIndex: a
// rebuild is Θ(n + m), which is what any maintenance that still has to
// relabel components canonically costs anyway, and it is bit-identical to
// a cold build by construction. What Update adds is the cover map that
// lets cached subproblem results outlive the delta.
package preprocess

import (
	"netrel/internal/ugraph"
)

// IndexUpdate is the index after one delta and the map of old components
// onto it.
type IndexUpdate struct {
	// Index is the receiver itself for probability-only deltas (the 2ECC
	// structure depends only on topology), BuildIndex of the new graph
	// otherwise.
	Index *Index
	// CompMap maps each old component id to its id in Index, or -1 when
	// the component's edge content changed: an edit landed inside it, or
	// its vertex set is no longer a component. A cached subproblem result
	// covering a -1 component is stale garbage (its signature can no
	// longer be produced by a query); the others are retargeted through
	// this map.
	CompMap []int32
}

// Update carries the index across a validated delta: oldG is the graph the
// receiver indexes, newG is ApplyDelta's output for d. The receiver is
// never modified.
//
// An edit lands inside old component c when both endpoints of the edited
// edge lie in c: a probability update or removal of a non-bridge edge (a
// bridge's endpoints always lie in two components), or an addition
// within c. A component no edit lands inside keeps all of its edges, so
// its vertices stay 2-edge-connected and land in one new component; it
// keeps its edge content exactly when that component is no larger.
func (idx *Index) Update(oldG, newG *ugraph.Graph, d ugraph.Delta) *IndexUpdate {
	up := &IndexUpdate{Index: idx, CompMap: make([]int32, idx.NumComps)}
	for c := range up.CompMap {
		up.CompMap[c] = int32(c)
	}
	edit := func(e ugraph.Edge) {
		if c := idx.Comp[e.U]; c == idx.Comp[e.V] {
			up.CompMap[c] = -1
		}
	}
	for _, u := range d.SetProb {
		edit(oldG.Edge(u.Edge))
	}
	for _, i := range d.Remove {
		edit(oldG.Edge(i))
	}
	for _, e := range d.Add {
		edit(e)
	}
	if !d.TopologyChanged() {
		return up
	}

	up.Index = BuildIndex(newG)
	size := make([]int32, idx.NumComps)
	newSize := make([]int32, up.Index.NumComps)
	for v, c := range idx.Comp {
		nc := up.Index.Comp[v]
		size[c]++
		newSize[nc]++
		if up.CompMap[c] >= 0 {
			up.CompMap[c] = nc
		}
	}
	for c, nc := range up.CompMap {
		if nc >= 0 && newSize[nc] != size[c] {
			up.CompMap[c] = -1
		}
	}
	return up
}
