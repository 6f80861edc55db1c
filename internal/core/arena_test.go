package core

import (
	"errors"
	"math/rand/v2"
	"slices"
	"testing"

	"netrel/internal/frontier"
	"netrel/internal/xfloat"
)

// hashKey is the reference merge-key hash of s, which the expansion kernel
// computes as it writes a row (see hashLabel).
func hashKey(s *frontier.State) uint64 {
	h, w := uint64(len(s.Comp))*hashMul, uint64(0)
	for k, x := range s.Comp {
		h, w = hashLabel(h, w, k, x)
	}
	return hashFlags((h^w)*hashMul, s.Flag)
}

// TestStateTableMatchesKeyBytes checks the key table against the byte key
// it replaced: over the refApply children of random plans, layer by layer,
// sameKey holds exactly when the stateKey bytes are equal, the table
// finds a child exactly when an equal-keyed child was added before, and a
// row reads back the state pushed into it, Tcnt included.
func TestStateTableMatchesKeyBytes(t *testing.T) {
	r := rand.New(rand.NewPCG(5, 8))
	checked := 0
	for trial := 0; trial < 40; trial++ {
		plan := randMultigraph(r, 3+r.IntN(10), 4+r.IntN(24), 2+r.IntN(4))
		if plan == nil {
			continue
		}
		ref := newRefApply(plan.Plan)
		layer := []frontier.State{plan.Root()}
		for l := 0; l < plan.M() && len(layer) > 0; l++ {
			var a stateArena
			a.reset(plan.Step(l).Width)
			var tab stateTable
			tab.reset(2 * len(layer))
			keys := map[string]int32{}
			var out frontier.State
			for i := range layer {
				for _, exists := range [2]bool{true, false} {
					if ref.apply(l, &layer[i], exists, r.IntN(2) == 0, &out) != expandLive {
						continue
					}
					key := string(stateKey(&out, nil))
					for j := int32(0); j < int32(len(a.ncomp)); j++ {
						v := a.view(j)
						if a.sameKey(j, &out) != (string(stateKey(&v, nil)) == key) {
							t.Fatalf("layer %d: sameKey(%d, %+v) disagrees with the key bytes of %+v", l, j, out, v)
						}
						checked++
					}
					h := hashKey(&out)
					row := tab.find(&a, &out, h)
					want, seen := keys[key]
					if seen != (row >= 0) || (seen && row != want) {
						t.Fatalf("layer %d: find gave row %d, want %d (seen %v)", l, row, want, seen)
					}
					if !seen {
						row = a.push(&out, h)
						tab.add(&a, row)
						keys[key] = row
						v := a.view(row)
						if !slices.Equal(v.Comp, out.Comp) || !slices.Equal(v.Flag, out.Flag) || !slices.Equal(v.Tcnt, out.Tcnt) {
							t.Fatalf("layer %d: row %d reads back %+v, pushed %+v", l, row, v, out)
						}
					}
				}
			}
			layer = layer[:0]
			for j := int32(0); j < int32(len(a.ncomp)) && j < 64; j++ {
				v := a.view(j)
				layer = append(layer, cloneState(v))
			}
		}
	}
	if checked < 1000 {
		t.Fatalf("only %d sameKey comparisons; the plans are too small", checked)
	}
}

// TestStateTableCollisions forces every key onto one hash: the table must
// still tell the states apart by their rows.
func TestStateTableCollisions(t *testing.T) {
	const h = 42
	var a stateArena
	a.reset(9)
	var tab stateTable
	tab.reset(200)
	var states []frontier.State
	for i := 0; i < 200; i++ {
		// Distinct keys of one width: component labels from i's bits,
		// flags from the count parity.
		st := frontier.State{Comp: make([]uint16, 9)}
		for b := range st.Comp[1:] {
			if i>>b&1 == 1 {
				st.Comp[b+1] = 1
			}
		}
		n := 1 + int(slices.Max(st.Comp))
		st.Flag = make([]bool, n)
		st.Tcnt = make([]uint16, n)
		st.Flag[0] = i%2 == 0
		states = append(states, st)
		if row := tab.find(&a, &st, h); row >= 0 {
			t.Fatalf("state %d found as row %d before it was added", i, row)
		}
		tab.add(&a, a.push(&st, h))
	}
	for i := range states {
		if row := tab.find(&a, &states[i], h); row != int32(i) {
			t.Fatalf("state %d resolves to row %d", i, row)
		}
	}
}

// TestReplayRepeatedDeletion replays one chunk against a full layer: the
// first key fills the only slot and merges its repeat, and every
// occurrence of the second key is deleted into its own snapshot, as the
// sequential sweep (which indexes no deleted node) would. Under ExactOnly
// the first overflow fails the run.
func TestReplayRepeatedDeletion(t *testing.T) {
	var kids stateArena
	kids.reset(2)
	a := frontier.State{Comp: []uint16{0, 0}, Flag: []bool{true}, Tcnt: []uint16{1}}
	b := frontier.State{Comp: []uint16{0, 1}, Flag: []bool{true, false}, Tcnt: []uint16{1, 0}}
	kids.push(&a, hashKey(&a))
	kids.push(&b, hashKey(&b))
	p := []xfloat.F{xfloat.FromFloat64(0.1), xfloat.FromFloat64(0.2), xfloat.FromFloat64(0.3), xfloat.FromFloat64(0.4)}
	ch := expandResult{entries: 2, events: []expandEvent{
		{kind: expandLive, entry: 0, p: p[0]},
		{kind: expandLive, entry: 1, p: p[1]},
		{kind: expandLive, entry: 1, p: p[2]},
		{kind: expandLive, entry: 0, p: p[3]},
	}}
	replay := func(exactOnly bool) (*run, *layerTable, error) {
		r := &run{cfg: Config{MaxWidth: 1, ExactOnly: exactOnly}}
		t := &layerTable{arena: &kids, index: &stateTable{}, resolve: []int32{entryUnresolved, entryUnresolved}}
		t.index.reset(1)
		return r, t, r.replayChunk(&ch, 0, t)
	}
	r, tab, err := replay(false)
	if err != nil {
		t.Fatal(err)
	}
	if r.res.NodesCreated != 1 || r.res.NodesMerged != 1 || r.res.NodesDeleted != 2 {
		t.Fatalf("created %d, merged %d, deleted %d; want 1, 1, 2", r.res.NodesCreated, r.res.NodesMerged, r.res.NodesDeleted)
	}
	if len(tab.next) != 1 || tab.next[0].p != p[0].Add(p[3]) {
		t.Fatalf("live layer %+v, want one node of mass %v", tab.next, p[0].Add(p[3]))
	}
	if len(tab.deleted) != 2 || tab.deleted[0].p != p[1] || tab.deleted[1].p != p[2] || tab.deletedMass != p[1].Add(p[2]) {
		t.Fatalf("deleted %+v (mass %v), want masses %v and %v", tab.deleted, tab.deletedMass, p[1], p[2])
	}
	for _, sn := range tab.deleted {
		if v := tab.del.view(sn.idx); !slices.Equal(v.Comp, b.Comp) || !slices.Equal(v.Flag, b.Flag) || !slices.Equal(v.Tcnt, b.Tcnt) {
			t.Fatalf("deleted snapshot %d holds %+v, want %+v", sn.idx, v, b)
		}
	}
	if _, _, err := replay(true); !errors.Is(err, ErrNotExact) {
		t.Fatalf("ExactOnly overflow returned %v, want ErrNotExact", err)
	}
}

// TestHashKeyWideRows covers rows of 64 or more components, whose flags
// fold into more than one word: a flag past the first word must reach
// the hash.
func TestHashKeyWideRows(t *testing.T) {
	for _, n := range []int{63, 64, 65, 130} {
		st := frontier.State{Comp: make([]uint16, n), Flag: make([]bool, n), Tcnt: make([]uint16, n)}
		for i := range st.Comp {
			st.Comp[i] = uint16(i)
		}
		h := hashKey(&st)
		st.Flag[n-1] = true
		if hashKey(&st) == h {
			t.Fatalf("%d components: flag %d does not change the hash", n, n-1)
		}
	}
}
