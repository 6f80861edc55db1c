package ugraph

import (
	"errors"
	"fmt"
)

// ProbUpdate retargets one existing edge's existence probability.
type ProbUpdate struct {
	Edge int
	P    float64
}

// Delta is a small edit against a graph: probability updates on existing
// edges, edge removals (by index), and edge additions. A Delta never
// mutates the graph it is applied to — ApplyDelta returns a fresh graph —
// so concurrent readers of the base graph are always safe.
type Delta struct {
	SetProb []ProbUpdate
	Remove  []int
	Add     []Edge
}

// TopologyChanged reports whether the delta changes the edge set (as
// opposed to probabilities only). Probability-only deltas preserve the
// 2ECC index verbatim; topology deltas rebuild it.
func (d Delta) TopologyChanged() bool {
	return len(d.Remove) > 0 || len(d.Add) > 0
}

// ErrDelta reports an invalid delta (duplicate targets, out-of-range
// indices, self-loop additions, …); returned errors wrap it.
var ErrDelta = errors.New("ugraph: invalid delta")

// Validate checks d against g: SetProb targets must be distinct in-range
// edge indices with probabilities in (0,1] and must not also be removed;
// Remove entries must be distinct in-range edge indices; Add edges must
// have in-range endpoints, no self-loops, and probabilities in (0,1].
func (d Delta) Validate(g *Graph) error {
	removed := make(map[int]bool, len(d.Remove))
	for _, i := range d.Remove {
		if i < 0 || i >= g.M() {
			return fmt.Errorf("%w: remove index %d with m=%d", ErrDelta, i, g.M())
		}
		if removed[i] {
			return fmt.Errorf("%w: edge %d removed twice", ErrDelta, i)
		}
		removed[i] = true
	}
	seen := make(map[int]bool, len(d.SetProb))
	for _, u := range d.SetProb {
		if u.Edge < 0 || u.Edge >= g.M() {
			return fmt.Errorf("%w: set_prob index %d with m=%d", ErrDelta, u.Edge, g.M())
		}
		if seen[u.Edge] {
			return fmt.Errorf("%w: edge %d has two probability updates", ErrDelta, u.Edge)
		}
		seen[u.Edge] = true
		if removed[u.Edge] {
			return fmt.Errorf("%w: edge %d both updated and removed", ErrDelta, u.Edge)
		}
		if !(u.P > 0 && u.P <= 1) {
			return fmt.Errorf("%w: edge %d probability %v outside (0,1]", ErrProbRange, u.Edge, u.P)
		}
	}
	for i, e := range d.Add {
		if e.U < 0 || e.U >= g.N() || e.V < 0 || e.V >= g.N() {
			return fmt.Errorf("%w: added edge %d (%d,%d) with n=%d", ErrVertexRange, i, e.U, e.V, g.N())
		}
		if e.U == e.V {
			return fmt.Errorf("%w: added edge %d is a self-loop at vertex %d", ErrDelta, i, e.U)
		}
		if !(e.P > 0 && e.P <= 1) {
			return fmt.Errorf("%w: added edge %d probability %v outside (0,1]", ErrProbRange, i, e.P)
		}
	}
	return nil
}

// ApplyDelta validates d and produces the edited graph: surviving edges
// keep their original relative order (with probability updates applied),
// additions append after them. oldToNew maps each old edge index to its
// index in the new graph, -1 exactly for removed edges. g itself is never
// modified; an empty delta yields a plain clone with the identity map.
func ApplyDelta(g *Graph, d Delta) (*Graph, []int, error) {
	if err := d.Validate(g); err != nil {
		return nil, nil, err
	}
	removed := make([]bool, g.M())
	for _, i := range d.Remove {
		removed[i] = true
	}
	out := New(g.n)
	out.edges = make([]Edge, 0, g.M()-len(d.Remove)+len(d.Add))
	oldToNew := make([]int, g.M())
	for i, e := range g.edges {
		if removed[i] {
			oldToNew[i] = -1
			continue
		}
		oldToNew[i] = len(out.edges)
		out.edges = append(out.edges, e)
	}
	for _, u := range d.SetProb {
		out.edges[oldToNew[u.Edge]].P = u.P
	}
	out.edges = append(out.edges, d.Add...)
	return out, oldToNew, nil
}
