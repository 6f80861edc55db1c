// Code generated from Go 1.24's src/slices/zsortanyfunc.go; DO NOT EDIT.

// This is the standard library's pdqsort (the pdqsortCmpFunc family, with
// the helpers it uses from src/slices/sort.go), specialized to []rank. Its
// comparator appears only as cmp(x, y) < 0, which here reads
// x.hLog > y.hLog: slices.SortFunc with cmp(x, y) = cmp.Compare(y.hLog,
// x.hLog) answers every such question the same way while hLog is never
// NaN. So the copy makes the same comparisons and swaps, and yields the
// same permutation, ties and -Inf included. The permutation is part of the
// answer: it fixes which nodes a full layer deletes.
//
// To regenerate: take insertionSortCmpFunc through reverseRangeCmpFunc,
// drop the cmp parameter, substitute the comparisons, rename the CmpFunc
// suffix to Ranks, and append sortedHint, xorshift and nextPowerOfTwo.
//
// Copyright 2022 The Go Authors. All rights reserved. The original is
// distributed under the following licence:
//
// Copyright 2009 The Go Authors.
//
// Redistribution and use in source and binary forms, with or without
// modification, are permitted provided that the following conditions are
// met:
//
//    * Redistributions of source code must retain the above copyright
// notice, this list of conditions and the following disclaimer.
//    * Redistributions in binary form must reproduce the above
// copyright notice, this list of conditions and the following disclaimer
// in the documentation and/or other materials provided with the
// distribution.
//    * Neither the name of Google LLC nor the names of its
// contributors may be used to endorse or promote products derived from
// this software without specific prior written permission.
//
// THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
// "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
// LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
// A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
// OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
// SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
// LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
// DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
// THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
// (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
// OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.

package core

import "math/bits"

// sortRanks sorts ranks by descending hLog, as slices.SortFunc does.
func sortRanks(x []rank) {
	n := len(x)
	pdqsortRanks(x, 0, n, bits.Len(uint(n)))
}

// insertionSortRanks sorts data[a:b] using insertion sort.
func insertionSortRanks(data []rank, a, b int) {
	for i := a + 1; i < b; i++ {
		for j := i; j > a && (data[j].hLog > data[j-1].hLog); j-- {
			data[j], data[j-1] = data[j-1], data[j]
		}
	}
}

// siftDownRanks implements the heap property on data[lo:hi].
// first is an offset into the array where the root of the heap lies.
func siftDownRanks(data []rank, lo, hi, first int) {
	root := lo
	for {
		child := 2*root + 1
		if child >= hi {
			break
		}
		if child+1 < hi && (data[first+child].hLog > data[first+child+1].hLog) {
			child++
		}
		if !(data[first+root].hLog > data[first+child].hLog) {
			return
		}
		data[first+root], data[first+child] = data[first+child], data[first+root]
		root = child
	}
}

func heapSortRanks(data []rank, a, b int) {
	first := a
	lo := 0
	hi := b - a

	// Build heap with greatest element at top.
	for i := (hi - 1) / 2; i >= 0; i-- {
		siftDownRanks(data, i, hi, first)
	}

	// Pop elements, largest first, into end of data.
	for i := hi - 1; i >= 0; i-- {
		data[first], data[first+i] = data[first+i], data[first]
		siftDownRanks(data, lo, i, first)
	}
}

// pdqsortRanks sorts data[a:b].
// The algorithm based on pattern-defeating quicksort(pdqsort), but without the optimizations from BlockQuicksort.
// pdqsort paper: https://arxiv.org/pdf/2106.05123.pdf
// C++ implementation: https://github.com/orlp/pdqsort
// Rust implementation: https://docs.rs/pdqsort/latest/pdqsort/
// limit is the number of allowed bad (very unbalanced) pivots before falling back to heapsort.
func pdqsortRanks(data []rank, a, b, limit int) {
	const maxInsertion = 12

	var (
		wasBalanced    = true // whether the last partitioning was reasonably balanced
		wasPartitioned = true // whether the slice was already partitioned
	)

	for {
		length := b - a

		if length <= maxInsertion {
			insertionSortRanks(data, a, b)
			return
		}

		// Fall back to heapsort if too many bad choices were made.
		if limit == 0 {
			heapSortRanks(data, a, b)
			return
		}

		// If the last partitioning was imbalanced, we need to breaking patterns.
		if !wasBalanced {
			breakPatternsRanks(data, a, b)
			limit--
		}

		pivot, hint := choosePivotRanks(data, a, b)
		if hint == decreasingHint {
			reverseRangeRanks(data, a, b)
			// The chosen pivot was pivot-a elements after the start of the array.
			// After reversing it is pivot-a elements before the end of the array.
			// The idea came from Rust's implementation.
			pivot = (b - 1) - (pivot - a)
			hint = increasingHint
		}

		// The slice is likely already sorted.
		if wasBalanced && wasPartitioned && hint == increasingHint {
			if partialInsertionSortRanks(data, a, b) {
				return
			}
		}

		// Probably the slice contains many duplicate elements, partition the slice into
		// elements equal to and elements greater than the pivot.
		if a > 0 && !(data[a-1].hLog > data[pivot].hLog) {
			mid := partitionEqualRanks(data, a, b, pivot)
			a = mid
			continue
		}

		mid, alreadyPartitioned := partitionRanks(data, a, b, pivot)
		wasPartitioned = alreadyPartitioned

		leftLen, rightLen := mid-a, b-mid
		balanceThreshold := length / 8
		if leftLen < rightLen {
			wasBalanced = leftLen >= balanceThreshold
			pdqsortRanks(data, a, mid, limit)
			a = mid + 1
		} else {
			wasBalanced = rightLen >= balanceThreshold
			pdqsortRanks(data, mid+1, b, limit)
			b = mid
		}
	}
}

// partitionRanks does one quicksort partition.
// Let p = data[pivot]
// Moves elements in data[a:b] around, so that data[i]<p and data[j]>=p for i<newpivot and j>newpivot.
// On return, data[newpivot] = p
func partitionRanks(data []rank, a, b, pivot int) (newpivot int, alreadyPartitioned bool) {
	data[a], data[pivot] = data[pivot], data[a]
	i, j := a+1, b-1 // i and j are inclusive of the elements remaining to be partitioned

	for i <= j && (data[i].hLog > data[a].hLog) {
		i++
	}
	for i <= j && !(data[j].hLog > data[a].hLog) {
		j--
	}
	if i > j {
		data[j], data[a] = data[a], data[j]
		return j, true
	}
	data[i], data[j] = data[j], data[i]
	i++
	j--

	for {
		for i <= j && (data[i].hLog > data[a].hLog) {
			i++
		}
		for i <= j && !(data[j].hLog > data[a].hLog) {
			j--
		}
		if i > j {
			break
		}
		data[i], data[j] = data[j], data[i]
		i++
		j--
	}
	data[j], data[a] = data[a], data[j]
	return j, false
}

// partitionEqualRanks partitions data[a:b] into elements equal to data[pivot] followed by elements greater than data[pivot].
// It assumed that data[a:b] does not contain elements smaller than the data[pivot].
func partitionEqualRanks(data []rank, a, b, pivot int) (newpivot int) {
	data[a], data[pivot] = data[pivot], data[a]
	i, j := a+1, b-1 // i and j are inclusive of the elements remaining to be partitioned

	for {
		for i <= j && !(data[a].hLog > data[i].hLog) {
			i++
		}
		for i <= j && (data[a].hLog > data[j].hLog) {
			j--
		}
		if i > j {
			break
		}
		data[i], data[j] = data[j], data[i]
		i++
		j--
	}
	return i
}

// partialInsertionSortRanks partially sorts a slice, returns true if the slice is sorted at the end.
func partialInsertionSortRanks(data []rank, a, b int) bool {
	const (
		maxSteps         = 5  // maximum number of adjacent out-of-order pairs that will get shifted
		shortestShifting = 50 // don't shift any elements on short arrays
	)
	i := a + 1
	for j := 0; j < maxSteps; j++ {
		for i < b && !(data[i].hLog > data[i-1].hLog) {
			i++
		}

		if i == b {
			return true
		}

		if b-a < shortestShifting {
			return false
		}

		data[i], data[i-1] = data[i-1], data[i]

		// Shift the smaller one to the left.
		if i-a >= 2 {
			for j := i - 1; j >= 1; j-- {
				if !(data[j].hLog > data[j-1].hLog) {
					break
				}
				data[j], data[j-1] = data[j-1], data[j]
			}
		}
		// Shift the greater one to the right.
		if b-i >= 2 {
			for j := i + 1; j < b; j++ {
				if !(data[j].hLog > data[j-1].hLog) {
					break
				}
				data[j], data[j-1] = data[j-1], data[j]
			}
		}
	}
	return false
}

// breakPatternsRanks scatters some elements around in an attempt to break some patterns
// that might cause imbalanced partitions in quicksort.
func breakPatternsRanks(data []rank, a, b int) {
	length := b - a
	if length >= 8 {
		random := xorshift(length)
		modulus := nextPowerOfTwo(length)

		for idx := a + (length/4)*2 - 1; idx <= a+(length/4)*2+1; idx++ {
			other := int(uint(random.Next()) & (modulus - 1))
			if other >= length {
				other -= length
			}
			data[idx], data[a+other] = data[a+other], data[idx]
		}
	}
}

// choosePivotRanks chooses a pivot in data[a:b].
//
// [0,8): chooses a static pivot.
// [8,shortestNinther): uses the simple median-of-three method.
// [shortestNinther,∞): uses the Tukey ninther method.
func choosePivotRanks(data []rank, a, b int) (pivot int, hint sortedHint) {
	const (
		shortestNinther = 50
		maxSwaps        = 4 * 3
	)

	l := b - a

	var (
		swaps int
		i     = a + l/4*1
		j     = a + l/4*2
		k     = a + l/4*3
	)

	if l >= 8 {
		if l >= shortestNinther {
			// Tukey ninther method, the idea came from Rust's implementation.
			i = medianAdjacentRanks(data, i, &swaps)
			j = medianAdjacentRanks(data, j, &swaps)
			k = medianAdjacentRanks(data, k, &swaps)
		}
		// Find the median among i, j, k and stores it into j.
		j = medianRanks(data, i, j, k, &swaps)
	}

	switch swaps {
	case 0:
		return j, increasingHint
	case maxSwaps:
		return j, decreasingHint
	default:
		return j, unknownHint
	}
}

// order2Ranks returns x,y where data[x] <= data[y], where x,y=a,b or x,y=b,a.
func order2Ranks(data []rank, a, b int, swaps *int) (int, int) {
	if data[b].hLog > data[a].hLog {
		*swaps++
		return b, a
	}
	return a, b
}

// medianRanks returns x where data[x] is the median of data[a],data[b],data[c], where x is a, b, or c.
func medianRanks(data []rank, a, b, c int, swaps *int) int {
	a, b = order2Ranks(data, a, b, swaps)
	b, c = order2Ranks(data, b, c, swaps)
	a, b = order2Ranks(data, a, b, swaps)
	return b
}

// medianAdjacentRanks finds the median of data[a - 1], data[a], data[a + 1] and stores the index into a.
func medianAdjacentRanks(data []rank, a int, swaps *int) int {
	return medianRanks(data, a-1, a, a+1, swaps)
}

func reverseRangeRanks(data []rank, a, b int) {
	i := a
	j := b - 1
	for i < j {
		data[i], data[j] = data[j], data[i]
		i++
		j--
	}
}

type sortedHint int // hint for pdqsort when choosing the pivot

const (
	unknownHint sortedHint = iota
	increasingHint
	decreasingHint
)

// xorshift paper: https://www.jstatsoft.org/article/view/v008i14/xorshift.pdf
type xorshift uint64

func (r *xorshift) Next() uint64 {
	*r ^= *r << 13
	*r ^= *r >> 7
	*r ^= *r << 17
	return uint64(*r)
}

func nextPowerOfTwo(length int) uint {
	return 1 << bits.Len(uint(length))
}
