package core

import (
	"cmp"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// randPriorities returns n log-space priorities in position order. With
// levels > 0 they take few distinct values of both signs, so ties are
// common; otherwise they spread like a construction layer's, from about
// −7 to −50, sharing their sign and high exponent bits. About one in
// twenty is −∞, −0, +0 or +∞ instead. shape 1 sorts them descending,
// shape 2 ascending, and shape 3 sorts them descending and then moves a
// few out of place.
func randPriorities(r *rand.Rand, n, levels, shape int) []float64 {
	special := [...]float64{math.Inf(-1), math.Copysign(0, -1), 0, math.Inf(1)}
	hs := make([]float64, n)
	for i := range hs {
		switch {
		case r.IntN(20) == 0:
			hs[i] = special[r.IntN(len(special))]
		case levels > 0:
			hs[i] = float64(r.IntN(levels)-levels/2) / 4
		default:
			hs[i] = -28 + 7*r.NormFloat64()
		}
	}
	switch shape {
	case 1, 3:
		slices.SortFunc(hs, func(a, b float64) int { return cmp.Compare(b, a) })
	case 2:
		slices.Sort(hs)
	}
	if shape == 3 && n > 1 {
		for range 3 {
			i, j := r.IntN(n), r.IntN(n)
			hs[i], hs[j] = hs[j], hs[i]
		}
	}
	return hs
}

// checkSortRanks fails t unless sortRanks orders the ranks of hs, a layer
// in position order, exactly as slices.SortFunc orders them under the
// total order: descending priority, ties to the lower position.
func checkSortRanks(t *testing.T, hs []float64) {
	t.Helper()
	type prio struct {
		hLog float64
		pos  int32
	}
	want := make([]prio, len(hs))
	got := make([]rank, len(hs))
	for i, h := range hs {
		want[i] = prio{h, int32(i)}
		got[i] = rank{key: rankKey(h), pos: int32(i)}
	}
	slices.SortFunc(want, func(a, b prio) int {
		return cmp.Or(cmp.Compare(b.hLog, a.hLog), cmp.Compare(a.pos, b.pos))
	})
	var buf []rank
	sortRanks(got, &buf)
	for i := range want {
		if got[i].pos != want[i].pos {
			t.Fatalf("n=%d: permutations differ at %d: sortRanks %d, SortFunc %d (hLog %v vs %v)",
				len(hs), i, got[i].pos, want[i].pos, hs[got[i].pos], want[i].hLog)
		}
	}
}

// TestSortRanksMatchesTotalOrder checks sortRanks against slices.SortFunc
// on layers of up to 3,000 ranks, on both sides of the insertion-sort
// cut-off, with few-level ties, ±0, ±∞, and sorted and reversed runs.
func TestSortRanksMatchesTotalOrder(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 4))
	for trial := 0; trial < 600; trial++ {
		var n int
		switch trial % 3 {
		case 0:
			n = r.IntN(3001)
		case 1:
			n = insertionMax - 8 + r.IntN(17)
		default:
			n = r.IntN(300)
		}
		levels := 0
		if r.IntN(2) == 0 {
			levels = 1 + r.IntN(50)
		}
		checkSortRanks(t, randPriorities(r, n, levels, trial%4))
	}
}

// FuzzSortRanksMatchesTotalOrder is TestSortRanksMatchesTotalOrder on
// fuzzed layers, with the fuzzed priority x (unless NaN, which no
// priority is) at about one position in eight.
func FuzzSortRanksMatchesTotalOrder(f *testing.F) {
	f.Add(uint64(1), uint16(40), uint8(0), uint8(0), -3.5)
	f.Add(uint64(2), uint16(900), uint8(5), uint8(1), math.Copysign(0, -1))
	f.Add(uint64(3), uint16(2500), uint8(0), uint8(3), math.SmallestNonzeroFloat64)
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, levels, shape uint8, x float64) {
		r := rand.New(rand.NewPCG(seed, 0))
		hs := randPriorities(r, int(n%3001), int(levels%64), int(shape%4))
		if !math.IsNaN(x) {
			for i := range hs {
				if r.IntN(8) == 0 {
					hs[i] = x
				}
			}
		}
		checkSortRanks(t, hs)
	})
}

var benchRanks []rank

// BenchmarkSortRanks times sortRanks on layers from a small one to a full
// 10,000-node one. Their priorities spread as a Tokyo construction
// layer's do, from about −7 to −50 (median −28), so the keys share their
// high bytes. Each op restores the unsorted layer first.
func BenchmarkSortRanks(b *testing.B) {
	for _, n := range []int{30, 100, 1000, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			r := rand.New(rand.NewPCG(5, 6))
			src := make([]rank, n)
			for i := range src {
				src[i] = rank{key: rankKey(-28 + 7*r.NormFloat64()), pos: int32(i)}
			}
			a := make([]rank, n)
			var buf []rank
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(a, src)
				sortRanks(a, &buf)
			}
			benchRanks = a
		})
	}
}
