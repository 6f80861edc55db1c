package core

import (
	"slices"

	"netrel/internal/frontier"
)

// stateArena stores frontier states flat and pointer-free. Every state of
// one layer has the same frontier width f, so state i's component labels
// sit at comp[i·f:(i+1)·f], and its first ncomp[i] flag and count entries
// at the same offset of flag and tcnt. hash[i] is the state's key hash.
// The width is set by the first push after a reset.
type stateArena struct {
	f     int
	comp  []uint16
	flag  []bool
	tcnt  []uint16
	ncomp []uint16
	hash  []uint64
}

// reset empties the arena, keeping its storage.
func (a *stateArena) reset() {
	a.comp, a.flag, a.tcnt = a.comp[:0], a.flag[:0], a.tcnt[:0]
	a.ncomp, a.hash = a.ncomp[:0], a.hash[:0]
}

// push copies s, whose key hash is h, into a new row and returns its index.
func (a *stateArena) push(s *frontier.State, h uint64) int32 {
	i := len(a.ncomp)
	if i == 0 {
		a.f = len(s.Comp)
	}
	at := i * a.f
	a.comp = append(a.comp, s.Comp...)
	a.flag = slices.Grow(a.flag, a.f)[:at+a.f]
	a.tcnt = slices.Grow(a.tcnt, a.f)[:at+a.f]
	copy(a.flag[at:], s.Flag)
	copy(a.tcnt[at:], s.Tcnt)
	a.ncomp = append(a.ncomp, uint16(len(s.Flag)))
	a.hash = append(a.hash, h)
	return int32(i)
}

// view returns row i as a State whose slices point into the arena; it is
// valid until the arena is reset.
func (a *stateArena) view(i int32) frontier.State {
	lo := int(i) * a.f
	hi, n := lo+a.f, lo+int(a.ncomp[i])
	return frontier.State{Comp: a.comp[lo:hi:hi], Flag: a.flag[lo:n:n], Tcnt: a.tcnt[lo:n:n]}
}

// sameKey reports whether row i and s agree on the merge key (Comp, Flag)
// of Lemma 4.3; Tcnt is not part of it.
func (a *stateArena) sameKey(i int32, s *frontier.State) bool {
	lo := int(i) * a.f
	n := int(a.ncomp[i])
	return slices.Equal(a.comp[lo:lo+a.f], s.Comp) && slices.Equal(a.flag[lo:lo+n], s.Flag)
}

// hashKey hashes the merge key (Comp, Flag) of s, four labels per multiply.
func hashKey(s *frontier.State) uint64 {
	const mul = 0x9e3779b97f4a7c15
	h := uint64(len(s.Comp))*mul ^ uint64(len(s.Flag))
	c := s.Comp
	for ; len(c) >= 4; c = c[4:] {
		h = (h ^ uint64(c[0]) ^ uint64(c[1])<<16 ^ uint64(c[2])<<32 ^ uint64(c[3])<<48) * mul
	}
	for _, x := range c {
		h = (h ^ uint64(x)) * mul
	}
	var bits uint64
	for i, f := range s.Flag {
		if f {
			bits |= 1 << (i & 63)
		}
		if i&63 == 63 {
			h, bits = (h^bits)*mul, 0
		}
	}
	h = (h ^ bits) * mul
	h = (h ^ h>>33) * 0xff51afd7ed558ccd
	return h ^ h>>33
}

// stateTable is an open-addressing index of arena rows by merge key. A
// slot holds row+1, zero meaning empty. reset sizes it for a bound on the
// keys it will hold, so it stays at most half full and probes are short.
type stateTable struct{ slots []int32 }

// reset empties the table and sizes it for at most n keys.
func (t *stateTable) reset(n int) {
	size := 16
	for size < 2*n {
		size *= 2
	}
	if cap(t.slots) < size {
		t.slots = make([]int32, size)
	} else {
		t.slots = t.slots[:size]
		clear(t.slots)
	}
}

// find returns the row of a whose key equals s's (hash h), or -1.
func (t *stateTable) find(a *stateArena, s *frontier.State, h uint64) int32 {
	mask := uint64(len(t.slots) - 1)
	for p := h & mask; ; p = (p + 1) & mask {
		row := t.slots[p] - 1
		if row < 0 {
			return -1
		}
		if a.hash[row] == h && a.sameKey(row, s) {
			return row
		}
	}
}

// add indexes row of a, whose key the table does not hold yet.
func (t *stateTable) add(a *stateArena, row int32) {
	mask := uint64(len(t.slots) - 1)
	p := a.hash[row] & mask
	for t.slots[p] != 0 {
		p = (p + 1) & mask
	}
	t.slots[p] = row + 1
}
