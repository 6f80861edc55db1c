package core

import (
	"slices"

	"netrel/internal/frontier"
)

// stateArena stores frontier states flat and pointer-free. Every state of
// one layer has the same frontier width f, so state i's component labels
// sit at comp[i·f:(i+1)·f], and its first ncomp[i] flag and count entries
// at the same offset of flag and tcnt. hash[i] is the state's key hash.
// The rows are ncomp's entries. An arena filled by push holds exactly the
// rows pushed; a layer's child arena is laid out by resize, and each
// expansion chunk sets the rows of its own window (set), so only the rows
// some chunk kept hold a state.
type stateArena struct {
	f     int
	comp  []uint16
	flag  []bool
	tcnt  []uint16
	ncomp []uint16
	hash  []uint64
}

// reset empties the arena for rows of width f, keeping its storage.
func (a *stateArena) reset(f int) {
	a.f, a.ncomp, a.hash = f, a.ncomp[:0], a.hash[:0]
}

// room makes comp, flag and tcnt long enough, and ncomp and hash roomy
// enough, for n rows past the last.
func (a *stateArena) room(n int) {
	need := (len(a.ncomp) + n) * a.f
	if len(a.comp) < need {
		a.comp = slices.Grow(a.comp, need-len(a.comp))[:need]
		a.flag = slices.Grow(a.flag, need-len(a.flag))[:need]
		a.tcnt = slices.Grow(a.tcnt, need-len(a.tcnt))[:need]
	}
	a.ncomp = slices.Grow(a.ncomp, n)
	a.hash = slices.Grow(a.hash, n)
}

// resize empties the arena and lays it out as rows rows of width f, none
// holding a state yet, keeping its storage. After it, nothing grows the
// arena's slices, so goroutines may set disjoint rows concurrently.
func (a *stateArena) resize(f, rows int) {
	a.reset(f)
	a.room(rows)
	a.ncomp, a.hash = a.ncomp[:rows], a.hash[:rows]
}

// pending returns row, of ncomp components, as a State whose slices point
// into the arena. The expansion kernel writes a child there before
// keeping it.
func (a *stateArena) pending(row int32, ncomp int) frontier.State {
	lo := int(row) * a.f
	hi, n := lo+a.f, lo+ncomp
	return frontier.State{Comp: a.comp[lo:hi:hi], Flag: a.flag[lo:n:n], Tcnt: a.tcnt[lo:n:n]}
}

// set keeps row, which holds a state of ncomp components whose key hash
// is h.
func (a *stateArena) set(row int32, ncomp int, h uint64) {
	a.ncomp[row], a.hash[row] = uint16(ncomp), h
}

// push copies s, whose key hash is h, into a new row and returns its index.
func (a *stateArena) push(s *frontier.State, h uint64) int32 {
	i := len(a.ncomp)
	a.room(1)
	at := i * a.f
	copy(a.comp[at:at+a.f], s.Comp)
	copy(a.flag[at:], s.Flag)
	copy(a.tcnt[at:], s.Tcnt)
	a.ncomp = append(a.ncomp, uint16(len(s.Flag)))
	a.hash = append(a.hash, h)
	return int32(i)
}

// view returns row i as a State whose slices point into the arena; it is
// valid until the arena is reset.
func (a *stateArena) view(i int32) frontier.State { return a.pending(i, int(a.ncomp[i])) }

// sameKey reports whether row i and s agree on the merge key (Comp, Flag)
// of Lemma 4.3; Tcnt is not part of it.
func (a *stateArena) sameKey(i int32, s *frontier.State) bool {
	lo := int(i) * a.f
	n := int(a.ncomp[i])
	return slices.Equal(a.comp[lo:lo+a.f], s.Comp) && slices.Equal(a.flag[lo:lo+n], s.Flag)
}

// hashMul is the multiplier of the merge-key hash.
const hashMul = 0x9e3779b97f4a7c15

// The merge-key hash of a row of width f starts at f·hashMul, folds the
// component labels in four to a word (hashLabel), the last word padded
// with zeros, then the flags (hashFlags). A row's flag count follows from
// its labels (a canonical state numbers every component it has), so the
// labels can be hashed as they are written, before the count is known.

// hashLabel folds label x, the k-th of its row, into the hash h through
// the pending word w, and returns both.
func hashLabel(h, w uint64, k int, x uint16) (uint64, uint64) {
	w |= uint64(x) << (16 * (k & 3))
	if k&3 == 3 {
		return (h ^ w) * hashMul, 0
	}
	return h, w
}

// hashFlags finishes a merge-key hash: h has folded every label word, and
// flag is the row's flags, folded 64 to a word.
func hashFlags(h uint64, flag []bool) uint64 {
	for ; len(flag) >= 64; flag = flag[64:] {
		h = (h ^ flagWord(flag[:64])) * hashMul
	}
	h = (h ^ flagWord(flag)) * hashMul
	h = (h ^ h>>33) * 0xff51afd7ed558ccd
	return h ^ h>>33
}

// flagWord packs up to 64 flags into a word, flag i at bit i.
func flagWord(flag []bool) uint64 {
	var w uint64
	for i, f := range flag {
		if f {
			w |= 1 << i
		}
	}
	return w
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
