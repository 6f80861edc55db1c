// Package frontier implements the frontier-based state machine underlying
// both the exact BDD baseline and the S2BDD of the paper.
//
// Edges are processed in a fixed order. The frontier F_l before processing
// position l is the set of vertices with at least one processed and at least
// one unprocessed incident edge. A BDD node at layer l is a state over F_l:
// a partition of the frontier into connected components plus, per component,
// whether it contains a terminal (and, for the deletion heuristic, how many).
// Processing an edge as existent/non-existent maps a state to a child state
// or to a sink.
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

// Outcome classifies the result of applying an edge state to a node state.
type Outcome int8

const (
	// Live means the child is a regular node at the next layer.
	Live Outcome = iota
	// ZeroSink means the terminals are disconnected in every completion.
	ZeroSink
	// OneSink means the terminals are connected in every completion.
	OneSink
)

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

// Clone deep-copies a state. Construction keeps states in flat arenas and
// never clones one; tests and reference sweeps do.
func (s *State) Clone() State {
	return State{
		Comp: append([]uint16(nil), s.Comp...),
		Flag: append([]bool(nil), s.Flag...),
		Tcnt: append([]uint16(nil), s.Tcnt...),
	}
}

// Key appends a canonical byte encoding of the mergeable part of the state
// (partition + terminal booleans, per Lemma 4.3) to dst and returns it.
// It is the reference the S2BDD's hashed key tables are tested against.
func (s *State) Key(dst []byte) []byte {
	for _, c := range s.Comp {
		dst = append(dst, byte(c), byte(c>>8))
	}
	var cur byte
	bits := 0
	for _, f := range s.Flag {
		cur <<= 1
		if f {
			cur |= 1
		}
		bits++
		if bits == 8 {
			dst = append(dst, cur)
			cur, bits = 0, 0
		}
	}
	if bits > 0 {
		dst = append(dst, cur)
	}
	return dst
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
	g      *ugraph.Graph
	order  []int
	terms  ugraph.Terminals
	isTerm []bool

	firstTouch []int32
	lastTouch  []int32

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
	p := &Plan{
		g:          g,
		order:      ord,
		terms:      ts,
		isTerm:     make([]bool, n),
		firstTouch: make([]int32, n),
		lastTouch:  make([]int32, n),
	}
	for _, t := range ts {
		p.isTerm[t] = true
	}
	for v := range p.firstTouch {
		p.firstTouch[v] = int32(m) // untouched sentinel: beyond all layers
		p.lastTouch[v] = -1
	}
	for pos, ei := range ord {
		e := g.Edge(ei)
		for _, v := range [2]int{e.U, e.V} {
			if p.firstTouch[v] == int32(m) {
				p.firstTouch[v] = int32(pos)
			}
			p.lastTouch[v] = int32(pos)
		}
	}
	for _, t := range ts {
		if p.lastTouch[t] == -1 {
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
		p.termStart[p.firstTouch[t]+2]++
	}
	for l := 1; l <= m+1; l++ {
		p.termStart[l] += p.termStart[l-1]
	}
	for _, t := range ts {
		f := p.firstTouch[t] + 1
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
		switch first, last := p.firstTouch[v], p.lastTouch[v]; {
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
		st.uRetires = p.lastTouch[e.U] == int32(l)
		st.vRetires = p.lastTouch[e.V] == int32(l)
		// Both slots are read before this layer's joins and leaves.
		if p.firstTouch[e.U] < int32(l) {
			st.slotU = rank(seq[e.U])
		}
		if p.firstTouch[e.V] < int32(l) {
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
func (p *Plan) M() int { return p.g.M() }

// Graph returns the underlying graph.
func (p *Plan) Graph() *ugraph.Graph { return p.g }

// Order returns the edge processing order.
func (p *Plan) Order() []int { return p.order }

// MaxFrontier returns the maximum frontier width over all layers.
func (p *Plan) MaxFrontier() int { return p.maxFrontier }

// UnseenFrom returns the number of terminals with no incident edge processed
// before position l.
func (p *Plan) UnseenFrom(l int) int { return len(p.terms) - int(p.termStart[l]) }

// UnseenTerms returns the terminals untouched before position l.
func (p *Plan) UnseenTerms(l int) []int32 {
	return p.termsSorted[p.termStart[l]:]
}

// Root returns the state at layer 0: empty frontier, no components.
func (p *Plan) Root() State { return State{} }

// AdvanceFrontier transforms F_l (in cur, canonical slot order) into F_{l+1},
// appending into next's storage and returning it. Drivers that process
// layers sequentially call this once per layer; the slot order matches the
// canonical order Apply assigns to child states.
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

// FrontierAt reconstructs F_l by simulation in O(l); intended for tests and
// one-off diagnostics, not hot paths.
func (p *Plan) FrontierAt(l int) []int32 {
	cur := []int32{}
	next := []int32{}
	for i := 0; i < l; i++ {
		next = p.AdvanceFrontier(i, cur, next)
		cur, next = next, cur
	}
	return append([]int32(nil), cur...)
}

// Step is the frontier transition of one layer, for expansion kernels that
// write child states themselves instead of calling Apply. A child's slots
// are the parent's slots in order minus the retiring ones, then the
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

// Scratch holds reusable buffers for Apply, the test reference. One per
// goroutine.
type Scratch struct {
	mapTo []int32 // ext comp id → representative ext comp id (after merge)
	canon []int32 // ext comp id → canonical new id, or -1
}

// NewScratch sizes scratch buffers for plan p.
func NewScratch(p *Plan) *Scratch {
	c := p.maxFrontier + 3
	return &Scratch{
		mapTo: make([]int32, c),
		canon: make([]int32, c),
	}
}

// Apply processes the edge at position l in state s with the given edge
// existence, writing the child state into out (reusing its capacity). It
// is the test reference for the S2BDD's fused expansion kernel, which
// reads the layer's Step and writes both children of a parent in one pass.
// earlyTerm enables the S2BDD early 1-sink detection; the classic
// construction passes false. The returned Outcome tells whether out is a
// live node or the transition hit a sink (out is then undefined). out must
// not alias s.
func (p *Plan) Apply(l int, s *State, exists bool, earlyTerm bool, sc *Scratch, out *State) Outcome {
	st := &p.layers[l]
	nOld := len(s.Flag)

	// Extended component universe: old comps 0..nOld-1, plus entering U at
	// id nOld, entering V at id nOld+1 (when applicable).
	extCount := nOld
	cu, cv := int32(-1), int32(-1)
	var extraFlag [2]bool
	var extraT [2]uint16
	if st.slotU >= 0 {
		cu = int32(s.Comp[st.slotU])
	} else {
		cu = int32(extCount)
		extraFlag[extCount-nOld] = p.isTerm[st.edge.U]
		if p.isTerm[st.edge.U] {
			extraT[extCount-nOld] = 1
		}
		extCount++
	}
	if st.slotV >= 0 {
		cv = int32(s.Comp[st.slotV])
	} else if st.edge.V == st.edge.U {
		cv = cu
	} else {
		cv = int32(extCount)
		extraFlag[extCount-nOld] = p.isTerm[st.edge.V]
		if p.isTerm[st.edge.V] {
			extraT[extCount-nOld] = 1
		}
		extCount++
	}

	flagOf := func(c int32) bool {
		if int(c) < nOld {
			return s.Flag[c]
		}
		return extraFlag[int(c)-nOld]
	}
	tcntOf := func(c int32) uint16 {
		if int(c) < nOld {
			return s.Tcnt[c]
		}
		return extraT[int(c)-nOld]
	}

	mapTo := sc.mapTo[:extCount]
	for i := range mapTo {
		mapTo[i] = int32(i)
	}
	merged := exists && cu != cv
	var mergedFlag bool
	var mergedT uint16
	if merged {
		mapTo[cv] = cu
		mergedFlag = flagOf(cu) || flagOf(cv)
		mergedT = tcntOf(cu) + tcntOf(cv)
	}
	repFlag := func(c int32) bool {
		if merged && c == cu {
			return mergedFlag
		}
		return flagOf(c)
	}
	repT := func(c int32) uint16 {
		if merged && c == cu {
			return mergedT
		}
		return tcntOf(c)
	}

	// Canonicalize survivors in F_{l+1} slot order: old slots in order
	// minus retirees, then entering U, then entering V.
	canon := sc.canon[:extCount]
	for i := range canon {
		canon[i] = -1
	}
	out.Comp = out.Comp[:0]
	out.Flag = out.Flag[:0]
	out.Tcnt = out.Tcnt[:0]
	nextID := int32(0)
	aliveFlagged := 0
	emit := func(ec int32) {
		ec = mapTo[ec]
		if canon[ec] == -1 {
			canon[ec] = nextID
			f := repFlag(ec)
			out.Flag = append(out.Flag, f)
			out.Tcnt = append(out.Tcnt, repT(ec))
			if f {
				aliveFlagged++
			}
			nextID++
		}
		out.Comp = append(out.Comp, uint16(canon[ec]))
	}
	for slot := int32(0); slot < st.flen; slot++ {
		if (slot == st.slotU && st.uRetires) || (slot == st.slotV && st.vRetires) {
			continue
		}
		emit(int32(s.Comp[slot]))
	}
	if st.slotU == -1 && !st.uRetires {
		emit(cu)
	}
	if st.slotV == -1 && !st.vRetires && st.edge.V != st.edge.U {
		emit(cv)
	}

	// Retired flagged components: representatives with no surviving slot.
	retiredFlagged := 0
	for c := int32(0); c < int32(extCount); c++ {
		if mapTo[c] != c {
			continue // absorbed into another component
		}
		if canon[c] != -1 {
			continue // survives
		}
		if repFlag(c) {
			retiredFlagged++
		}
	}

	unseen := p.UnseenFrom(l + 1)
	if retiredFlagged > 0 {
		if retiredFlagged == 1 && aliveFlagged == 0 && unseen == 0 {
			return OneSink
		}
		return ZeroSink
	}
	if earlyTerm && aliveFlagged == 1 && unseen == 0 {
		// All terminals already in one live component (Lemma 4.1).
		return OneSink
	}
	return Live
}
