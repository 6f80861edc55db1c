// Package unionfind provides the disjoint-set union used for connectivity
// testing in possible-world sampling, the exact solvers and graph
// component analysis.
//
// Arena's Reset costs O(touched), for the hot sampling loop where millions
// of connectivity checks run on the same vertex universe; one-shot callers
// never reset it. Arena.Attach hangs one root beneath another without a
// Find, so a caller can pre-seed a known partition (the S2BDD completer
// attaches each frontier vertex to its component's element) or link roots
// it has already found; Reset undoes attachments like unions.
package unionfind

// Arena is a union-find whose Reset cost is proportional to the number of
// elements touched since the last reset rather than to the universe size.
// It trades the rank heuristic for a touch log; path halving keeps Find
// effectively constant for the short-lived structures built per sample.
//
// Parallel samplers keep one Arena per worker and write its touch log on
// every sample, so the blank fields give the header cache lines of its
// own: two workers' Arenas allocated side by side never share one.
type Arena struct {
	_       [64]byte
	parent  []int32
	touched []int32
	_       [64]byte
}

// NewArena returns an Arena over n elements.
func NewArena(n int) *Arena {
	a := &Arena{
		parent:  make([]int32, n),
		touched: make([]int32, 0, 64),
	}
	for i := range a.parent {
		a.parent[i] = int32(i)
	}
	return a
}

// Find returns the representative of x's set.
func (a *Arena) Find(x int) int {
	p := a.parent
	for p[x] != int32(x) {
		p[x] = p[p[x]]
		x = int(p[x])
	}
	return x
}

// Union merges the sets of x and y, returning true if they were distinct.
// Roots are logged so Reset can undo only what changed.
func (a *Arena) Union(x, y int) bool {
	rx, ry := a.Find(x), a.Find(y)
	if rx == ry {
		return false
	}
	// Attach the higher-numbered root beneath the lower; deterministic and
	// adequate for the short per-sample merge sequences.
	if rx > ry {
		rx, ry = ry, rx
	}
	a.Attach(ry, rx)
	return true
}

// Attach makes r the parent of x, which must be a root, and logs x for
// Reset.
func (a *Arena) Attach(x, r int) {
	a.parent[x] = int32(r)
	a.touched = append(a.touched, int32(x))
}

// Reset undoes all unions and attachments since the previous Reset in
// O(touched) time.
// A node's parent pointer first deviates from itself only inside Attach,
// which logs it; path halving afterwards only rewrites pointers of nodes
// already logged. Restoring the logged nodes therefore restores the whole
// structure.
func (a *Arena) Reset() {
	for _, v := range a.touched {
		a.parent[v] = v
	}
	a.touched = a.touched[:0]
}
