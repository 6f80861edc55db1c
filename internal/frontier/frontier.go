// Package frontier implements the frontier-based state machine underlying
// both the exact BDD baseline and the S2BDD of the paper.
//
// Edges are processed in a fixed order. The frontier F_l before processing
// position l is the set of vertices with at least one processed and at least
// one unprocessed incident edge. A BDD node at layer l is a state over F_l:
// a partition of the frontier into connected components plus, per component,
// whether it contains a terminal (and, for the deletion heuristic, how many).
// Processing an edge as existent/non-existent maps a state to a child state
// or to a sink. This package plans the transitions; the S2BDD's child
// kernel (internal/core/expand.go) applies them, and core's tests keep a
// direct reference implementation of the rules below
// (internal/core/reference_test.go) that the kernel must match.
//
// Sink rules (these subsume Lemmas 4.1 and 4.2 of the paper):
//
//   - 1-sink: the set of terminal-carrying components has collapsed to one
//     and no terminal remains unseen (unseen-ness is layer-global). With
//     early termination enabled this fires as soon as it holds; without it
//     (the classic construction the paper compares against) it fires only
//     when that last component retires.
//   - 0-sink: a terminal-carrying component retires from the frontier while
//     other terminal-carrying components or unseen terminals remain.
//
// The Plan stores each layer as a diff (≤2 vertices enter, ≤2 retire), so
// its memory is O(m + n) regardless of frontier width, and NewPlan builds
// it in O(m log n) time; callers that need the concrete frontier of the
// layer they are processing maintain it incrementally with
// AdvanceFrontier.
package frontier

import (
	"errors"
	"fmt"

	"netrel/internal/ugraph"
)

// MaxFrontierWidth bounds the frontier so component labels fit in uint16.
const MaxFrontierWidth = 1 << 15

// State is a node state over the frontier of some layer. Comp assigns each
// frontier slot a canonical component id (first occurrence order); Flag and
// Tcnt are indexed by component id. Flag is the merge key attribute
// (Lemma 4.3); Tcnt is exact terminal counts maintained for the deletion
// heuristic h(n).
type State struct {
	Comp []uint16
	Flag []bool
	Tcnt []uint16
}

// layerStep holds the frontier transition for one edge position as a diff.
type layerStep struct {
	edge  ugraph.Edge
	slotU int32 // slot of U in F_l, or -1 if U enters at this layer
	slotV int32
	// uRetires/vRetires report that the endpoint leaves the frontier after
	// this edge (it was the vertex's last unprocessed edge).
	uRetires, vRetires bool
	flen               int32 // |F_l|
}

// Plan precomputes all frontier transitions for a graph and edge order.
type Plan struct {
	isTerm      []bool
	layers      []layerStep
	termsSorted []int32 // terminals sorted by firstTouch
	termStart   []int32 // termStart[l] = first index with firstTouch ≥ l
	maxFrontier int
}

// ErrFrontierTooWide reports that the frontier exceeds MaxFrontierWidth
// under the given edge order.
var ErrFrontierTooWide = errors.New("frontier: frontier exceeds maximum width; try a different edge order")

// NewPlan builds a Plan for g with terminals ts processing edges in ord
// (a permutation of edge indices). It takes O(m log n) time, for any
// frontier width, and a fixed number of allocations.
func NewPlan(g *ugraph.Graph, ts ugraph.Terminals, ord []int) (*Plan, error) {
	m := g.M()
	if err := validatePerm(m, ord); err != nil {
		return nil, err
	}
	n := g.N()
	p := &Plan{isTerm: make([]bool, n)}
	firstTouch := make([]int32, n)
	lastTouch := make([]int32, n)
	for _, t := range ts {
		p.isTerm[t] = true
	}
	for v := range firstTouch {
		firstTouch[v] = int32(m) // untouched sentinel: beyond all layers
		lastTouch[v] = -1
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
	for _, t := range ts {
		if lastTouch[t] == -1 {
			return nil, fmt.Errorf("frontier: terminal %d has no incident edge", t)
		}
	}

	// termsSorted is a stable counting sort of ts by firstTouch, and
	// termStart[l] counts the terminals first touched before l. Counting
	// into termStart[f+2] makes termStart[f+1] the start of bucket f after
	// the prefix sum; filling the bucket advances it to the start of
	// bucket f+1, which is where the loop leaves it.
	p.termStart = make([]int32, m+2)
	p.termsSorted = make([]int32, len(ts))
	for _, t := range ts {
		p.termStart[firstTouch[t]+2]++
	}
	for l := 1; l <= m+1; l++ {
		p.termStart[l] += p.termStart[l-1]
	}
	for _, t := range ts {
		f := firstTouch[t] + 1
		p.termsSorted[p.termStart[f]] = int32(t)
		p.termStart[f]++
	}

	// Frontier evolution as diffs. A vertex joins the frontier once, at
	// its first touch, unless that is also its last, and leaves once, at
	// its last touch. Survivors keep their relative order and entering
	// endpoints append (U before V), so a vertex's slot in F_l is the
	// number of vertices still on the frontier that joined before it: a
	// prefix sum over a Fenwick tree indexed by join number (seq).
	p.layers = make([]layerStep, m)
	seq := make([]int32, n)
	tree := make([]int32, n+1)
	add := func(i, d int32) {
		for i++; int(i) < len(tree); i += i & -i {
			tree[i] += d
		}
	}
	rank := func(i int32) int32 {
		r := int32(0)
		for ; i > 0; i -= i & -i {
			r += tree[i]
		}
		return r
	}
	joined, flen := int32(0), int32(0)
	move := func(v int, l int32) {
		switch first, last := firstTouch[v], lastTouch[v]; {
		case first == l && last == l: // touched once: never on the frontier
		case last == l:
			add(seq[v], -1)
			flen--
		case first == l:
			seq[v] = joined
			add(joined, 1)
			joined++
			flen++
		}
	}
	for l := 0; l < m; l++ {
		e := g.Edge(ord[l])
		st := layerStep{edge: e, slotU: -1, slotV: -1, flen: flen}
		st.uRetires = lastTouch[e.U] == int32(l)
		st.vRetires = lastTouch[e.V] == int32(l)
		// Both slots are read before this layer's joins and leaves.
		if firstTouch[e.U] < int32(l) {
			st.slotU = rank(seq[e.U])
		}
		if firstTouch[e.V] < int32(l) {
			st.slotV = rank(seq[e.V])
		}
		move(e.U, int32(l))
		if e.V != e.U {
			move(e.V, int32(l))
		}
		p.layers[l] = st
		if int(flen) > p.maxFrontier {
			p.maxFrontier = int(flen)
		}
	}
	if p.maxFrontier > MaxFrontierWidth {
		return nil, fmt.Errorf("%w: %d", ErrFrontierTooWide, p.maxFrontier)
	}
	return p, nil
}

func validatePerm(m int, ord []int) error {
	if len(ord) != m {
		return fmt.Errorf("frontier: order length %d, want %d", len(ord), m)
	}
	seen := make([]bool, m)
	for _, i := range ord {
		if i < 0 || i >= m || seen[i] {
			return fmt.Errorf("frontier: order is not a permutation of edges")
		}
		seen[i] = true
	}
	return nil
}

// M returns the number of edges (layers).
func (p *Plan) M() int { return len(p.layers) }

// MaxFrontier returns the maximum frontier width over all layers.
func (p *Plan) MaxFrontier() int { return p.maxFrontier }

// UnseenFrom returns the number of terminals with no incident edge processed
// before position l.
func (p *Plan) UnseenFrom(l int) int { return len(p.termsSorted) - int(p.termStart[l]) }

// UnseenTerms returns the terminals untouched before position l.
func (p *Plan) UnseenTerms(l int) []int32 {
	return p.termsSorted[p.termStart[l]:]
}

// Root returns the state at layer 0: empty frontier, no components.
func (p *Plan) Root() State { return State{} }

// AdvanceFrontier transforms F_l (in cur, canonical slot order) into F_{l+1},
// appending into next's storage and returning it. Drivers that process
// layers sequentially call this once per layer; the slot order is the
// slot order of every child state (see Step).
func (p *Plan) AdvanceFrontier(l int, cur, next []int32) []int32 {
	st := &p.layers[l]
	next = next[:0]
	for _, v := range cur {
		if (v == int32(st.edge.U) && st.uRetires) || (v == int32(st.edge.V) && st.vRetires) {
			continue
		}
		next = append(next, v)
	}
	if st.slotU == -1 && !st.uRetires {
		next = append(next, int32(st.edge.U))
	}
	if st.slotV == -1 && !st.vRetires && st.edge.V != st.edge.U {
		next = append(next, int32(st.edge.V))
	}
	return next
}

// Step is the frontier transition of one layer, which core's expansion
// kernel and its test reference read to write child states. A child's
// slots are the parent's slots in order minus the retiring ones, then the
// surviving entering endpoints, U before V.
type Step struct {
	Edge ugraph.Edge
	// SlotU and SlotV are the endpoints' slots in F_l, or -1 for an
	// endpoint that enters at this layer; a self-loop has SlotV == SlotU.
	SlotU, SlotV int32
	// URetires and VRetires report that the endpoint leaves the frontier
	// after this edge (it was the vertex's last unprocessed edge).
	URetires, VRetires bool
	// UTerm and VTerm report that the endpoint is a terminal.
	UTerm, VTerm bool
	// Width is |F_{l+1}|, the slot count of every child state.
	Width int
	// Unseen counts the terminals untouched before position l+1.
	Unseen int
}

// Step returns the frontier transition of layer l.
func (p *Plan) Step(l int) Step {
	st := &p.layers[l]
	width := 0
	if l+1 < len(p.layers) {
		width = int(p.layers[l+1].flen)
	}
	return Step{
		Edge:  st.edge,
		SlotU: st.slotU, SlotV: st.slotV,
		URetires: st.uRetires, VRetires: st.vRetires,
		UTerm: p.isTerm[st.edge.U], VTerm: p.isTerm[st.edge.V],
		Width:  width,
		Unseen: p.UnseenFrom(l + 1),
	}
}
