package core

import (
	"math"
	"slices"
)

// rank is a node's deletion priority and its position in its layer; a
// layer is ordered by sorting its ranks. key is rankKey of the node's
// log-space h(n) (Equation 10). The order is total: descending h(n), ties
// to the lower position. So any correct sort yields the same permutation,
// which is part of the answer: it fixes which nodes a full layer deletes.
type rank struct {
	key uint64
	pos int32
}

// rankKey maps a log-space priority to a key whose ascending order is
// descending hLog, the order of cmp.Compare(b, a) for any hLog but NaN:
// −0 ties with +0, and −∞ (a zero-mass node) sorts last.
func rankKey(hLog float64) uint64 {
	if hLog == 0 {
		hLog = 0 // −0 becomes +0
	}
	b := math.Float64bits(hLog)
	if b>>63 != 0 {
		return b // negative: the larger the magnitude, the later
	}
	return b ^ (1<<63 - 1) // non-negative: before every negative, larger first
}

// insertionMax is the longest layer sortRanks orders by insertion.
const insertionMax = 64

// sortRanks sorts a by ascending key, stably, using *buf as scratch. Ranks
// arrive in position order, so stability breaks ties by position. Layers
// of up to insertionMax ranks are sorted by insertion, longer ones by a
// byte-wise LSD radix sort that skips every byte all keys share, as a
// layer's priorities mostly share their high (sign and exponent) byte.
func sortRanks(a []rank, buf *[]rank) {
	n := len(a)
	if n <= insertionMax {
		for i := 1; i < n; i++ {
			x, j := a[i], i
			for ; j > 0 && x.key < a[j-1].key; j-- {
				a[j] = a[j-1]
			}
			a[j] = x
		}
		return
	}
	var counts [8][256]uint32
	for _, r := range a {
		k := r.key
		counts[0][byte(k)]++
		counts[1][byte(k>>8)]++
		counts[2][byte(k>>16)]++
		counts[3][byte(k>>24)]++
		counts[4][byte(k>>32)]++
		counts[5][byte(k>>40)]++
		counts[6][byte(k>>48)]++
		counts[7][byte(k>>56)]++
	}
	*buf = slices.Grow((*buf)[:0], n)[:n]
	src, dst := a, *buf
	for d := range counts {
		c := &counts[d]
		shift := 8 * d
		if int(c[byte(src[0].key>>shift)]) == n {
			continue // every key has this byte
		}
		off := uint32(0)
		for i, k := range c {
			c[i], off = off, off+k
		}
		for _, r := range src {
			b := byte(r.key >> shift)
			dst[c[b]] = r
			c[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &a[0] {
		copy(a, src)
	}
}
