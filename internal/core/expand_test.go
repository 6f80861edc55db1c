package core

import (
	"math/rand/v2"
	"slices"
	"testing"

	"netrel/internal/frontier"
	"netrel/internal/xfloat"
)

// checkExpandMatchesApply runs the expansion kernel over every layer of
// plan, on parent states reached from the root through the reference
// transition refApply (at most maxParents a layer, a random subset), with
// early termination on and off, and checks each child against refApply:
// the event's kind is refApply's, a live child's row reads back
// refApply's state (labels and flags, and the counts of the first child
// of the row) and carries
// hashKey of it, children of equal keys in
// one chunk share their row and children of different keys do not, and
// a parent whose two children are one state (cu == cv) gets one entry
// for both. It returns the number of live children checked.
func checkExpandMatchesApply(t testing.TB, r *rand.Rand, plan *frontier.Plan, maxParents int) int {
	t.Helper()
	checked := 0
	ref := newRefApply(plan)
	for _, earlyTerm := range [2]bool{true, false} {
		es := &expandSlot{canon: make([]uint16, plan.MaxFrontier()+2)}
		layer := []frontier.State{plan.Root()}
		var from stateArena
		for l := 0; l < plan.M() && len(layer) > 0; l++ {
			st := plan.Step(l)
			from.reset(len(layer[0].Comp))
			parents := make([]node, len(layer))
			for i := range layer {
				parents[i] = node{idx: from.push(&layer[i], 0), p: xfloat.One}
			}
			var to stateArena
			to.resize(st.Width, 2*len(parents))
			seen := map[string]frontier.State{}
			var next []frontier.State
			for lo := 0; lo < len(parents); lo += expandChunk {
				hi := min(lo+expandChunk, len(parents))
				var out expandResult
				base := chunkBase(lo / expandChunk)
				es.expand(&st, earlyTerm, &from, parents[lo:hi], &to, base, &out)
				if len(out.events) != 2*(hi-lo) {
					t.Fatalf("layer %d: %d events for %d parents", l, len(out.events), hi-lo)
				}
				rowOf := map[string]int32{}
				used := make([]bool, out.entries)
				for i := lo; i < hi; i++ {
					var kids [2]frontier.State
					var kinds [2]expandKind
					for j, exists := range [2]bool{true, false} {
						ev := out.events[2*(i-lo)+j]
						kinds[j] = ref.apply(l, &layer[i], exists, earlyTerm, &kids[j])
						if ev.kind != kinds[j] {
							t.Fatalf("layer %d, parent %d, exists %v: kind %d, refApply gives %d", l, i, exists, ev.kind, kinds[j])
						}
						if kinds[j] != expandLive {
							continue
						}
						if ev.entry < 0 || ev.entry >= out.entries {
							t.Fatalf("layer %d, parent %d: entry %d of %d", l, i, ev.entry, out.entries)
						}
						row := base + ev.entry
						// Counts are not part of the key: a row holds those
						// of its first child, as the sequential sweep's did.
						got := to.view(row)
						if !slices.Equal(got.Comp, kids[j].Comp) || !slices.Equal(got.Flag, kids[j].Flag) ||
							!used[ev.entry] && !slices.Equal(got.Tcnt, kids[j].Tcnt) {
							t.Fatalf("layer %d, parent %+v, exists %v: row %+v, refApply gives %+v", l, layer[i], exists, got, kids[j])
						}
						used[ev.entry] = true
						if h := hashKey(&kids[j]); to.hash[row] != h {
							t.Fatalf("layer %d: row hash %x, hashKey %x", l, to.hash[row], h)
						}
						key := string(stateKey(&kids[j], nil))
						if prev, ok := rowOf[key]; ok && prev != row {
							t.Fatalf("layer %d: one key in rows %d and %d of a chunk", l, prev, row)
						}
						rowOf[key] = row
						if _, ok := seen[key]; !ok {
							seen[key] = cloneState(kids[j])
							next = append(next, seen[key])
						}
						checked++
					}
					pre, abs := out.events[2*(i-lo)], out.events[2*(i-lo)+1]
					if kinds[0] == expandLive && kinds[0] == kinds[1] && slices.Equal(kids[0].Tcnt, kids[1].Tcnt) &&
						string(stateKey(&kids[0], nil)) == string(stateKey(&kids[1], nil)) && pre.entry != abs.entry {
						t.Fatalf("layer %d, parent %d: one child state in entries %d and %d", l, i, pre.entry, abs.entry)
					}
				}
				if len(rowOf) != int(out.entries) {
					t.Fatalf("layer %d: %d distinct keys in %d entries", l, len(rowOf), out.entries)
				}
				for e, u := range used {
					if !u {
						t.Fatalf("layer %d: entry %d has no event", l, e)
					}
				}
			}
			r.Shuffle(len(next), func(i, j int) { next[i], next[j] = next[j], next[i] })
			layer = next[:min(len(next), maxParents)]
		}
	}
	return checked
}

// TestExpandKernelMatchesApply checks the fused kernel against refApply on
// random multigraphs (self-loops and parallel edges included), random
// edge orders and terminal sets.
func TestExpandKernelMatchesApply(t *testing.T) {
	r := rand.New(rand.NewPCG(28, 1))
	checked := 0
	for trial := 0; trial < 80; trial++ {
		plan := randMultigraph(r, 2+r.IntN(14), 1+r.IntN(40), 1+r.IntN(5))
		if plan == nil {
			continue
		}
		checked += checkExpandMatchesApply(t, r, plan.Plan, 100)
	}
	t.Logf("%d live children checked", checked)
	if checked < 100_000 {
		t.Fatalf("only %d live children checked; the plans are too small", checked)
	}
}

// FuzzExpandMatchesApply is TestExpandKernelMatchesApply on fuzzed graphs.
func FuzzExpandMatchesApply(f *testing.F) {
	f.Add(uint64(1), uint8(6), uint8(12), uint8(3))
	f.Add(uint64(2), uint8(15), uint8(40), uint8(1))
	f.Add(uint64(3), uint8(2), uint8(5), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, n, m, k uint8) {
		r := rand.New(rand.NewPCG(seed, 28))
		plan := randMultigraph(r, 1+int(n%20), 1+int(m%48), 1+int(k%5))
		if plan == nil {
			return
		}
		checkExpandMatchesApply(t, r, plan.Plan, 100)
	})
}
