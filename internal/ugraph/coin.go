package ugraph

import "math"

// Coin is one edge of a flat sampling stream: its endpoints and the integer
// threshold of its existence coin. Samplers walk a []Coin instead of the
// edge list so each flip is one comparison on a contiguous record.
type Coin struct {
	U, V int32
	Thr  uint64
}

// Threshold returns the integer threshold of an edge that exists with
// probability p ∈ (0, 1], the range Graph.Validate enforces. For a 64-bit
// variate x with k = x<<11>>11, k < Threshold(p) holds exactly when
// k/2⁵³ < p, the rand.Float64 coin: k/2⁵³ and p·2⁵³ are both exact, and an
// integer lies below a real y iff it lies below ⌈y⌉.
func Threshold(p float64) uint64 {
	return uint64(math.Ceil(p * (1 << 53)))
}

// Heads reports whether variate x turns the coin up; it agrees bit for bit
// with float64(x<<11>>11)/(1<<53) < p.
func (c *Coin) Heads(x uint64) bool { return x<<11>>11 < c.Thr }

// Coins returns g's edges as coins in the order ord (a permutation of edge
// indices).
func Coins(g *Graph, ord []int) []Coin {
	cs := make([]Coin, len(ord))
	for i, ei := range ord {
		e := g.edges[ei]
		cs[i] = Coin{U: int32(e.U), V: int32(e.V), Thr: Threshold(e.P)}
	}
	return cs
}
