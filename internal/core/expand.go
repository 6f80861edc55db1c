// Parallel construction of the S2BDD layers.
//
// A layer's parent nodes are split into fixed-size chunks whose boundaries
// depend only on the layer width, chunks expand concurrently on up to
// Workers slots (engine-pool goroutines when cfg.Exec is set), and the
// driver consumes per-chunk outputs in chunk order.
//
// The driver cannot merge whole per-chunk child tables: whether a child
// merges into the layer, occupies a fresh node slot, or is deleted into a
// sampling stratum depends on the global, order-dependent fill state of
// the width-bounded table. Chunks therefore do only the
// schedule-independent work — the child kernel, key hashing, within-chunk
// deduplication — and record an event log; the driver replays the logs in
// (chunk, event) order against the global table. Replay order equals the
// sequential sweep's child order, so every xfloat addition, node ID,
// deletion, stratum mass, and downstream SeedStream(seed, layer, stratum,
// chunk) draw is bit-identical for any worker count — including one, which
// makes the chunked construction the schedule rather than an approximation
// of it. The node budget (Config.NodeBudget) is checked once a layer's
// replay is done, so it too sees only the schedule-independent count.
//
// The child kernel (expand) reads the layer's frontier.Step and makes both
// children of a parent in one relabel pass, writing them straight into
// the layer's child arena and hashing their keys as it writes. It
// computes exactly what its test reference, refApply (reference_test.go),
// computes by a direct reading of the sink rules. Once the replay is done,
// the new layer's deletion priorities are scored in fixed node chunks on
// the same workers (score, s2bdd.go), and only the sort that orders the
// layer runs on the driver. It sorts 16-byte ranks (priority key and
// position) into a total order, descending priority with ties to the
// lower position, by a stable radix sort (sortRanks, rank.go), then
// gathers the nodes once in the sorted order.
//
// No node owns heap storage, and each child is written once. A layer's
// states are rows of a stateArena (arena.go): every chunk reads the
// parents' arena, and writes its distinct children into its own fixed
// window of one child arena, laid out for two rows per parent before the
// fan-out, so no goroutine grows storage another one reads. The replay
// makes a new node of the row where its state already lies and copies
// only deleted children, into the arena their stratum keeps; the child
// arena then holds the next layer's parents. Keys are 64-bit hashes
// checked against the rows in open-addressing stateTables, so
// construction allocates per layer and per stratum, never per node.
package core

import (
	"slices"

	"netrel/internal/frontier"
	"netrel/internal/sampling"
	"netrel/internal/xfloat"
)

// expandChunk is the number of parent nodes per deterministic expansion
// unit. Chunk boundaries depend only on the layer width, never on the
// worker count. A chunk of 64 parents costs ≳100µs of expansion work on the
// dense graphs where construction parallelism matters, dwarfing the atomic
// chunk-claim; the exact BDD baseline's unbounded layers simply split into
// more chunks.
const expandChunk = 64

// Event kinds of the expansion log, in the child encounter order of the
// sequential sweep (parents in layer order, the exists=true child first).
type expandKind int8

const (
	expandOneSink expandKind = iota
	expandZeroSink
	expandLive
)

// expandEvent is one produced child: its probability mass and, for live
// children, the chunk-local entry holding its state.
type expandEvent struct {
	p     xfloat.F
	entry int32
	kind  expandKind
}

// expandResult is a chunk's output log. Chunk c's entries distinct live
// children are rows chunkBase(c), chunkBase(c)+1, … of the layer's child
// arena; an event's entry is its row less that base. Which event of an
// entry comes first is fixed by the event order, not by the row order.
type expandResult struct {
	events  []expandEvent
	entries int32
}

// chunkBase is the first child-arena row of expansion chunk c's window:
// two rows for each parent of the chunks before it.
func chunkBase(c int) int32 { return int32(2 * expandChunk * c) }

// expandSlot is the per-worker scratch of the construction phase: the
// within-chunk dedup table, the kernel's relabel map and the heuristic's
// per-component scratch.
type expandSlot struct {
	local stateTable
	canon []uint16 // parent component (or entering endpoint) → child label + 1, 0 if no slot
	hbuf  []int32
}

// expandSlotFor returns the worker-slot expansion scratch, creating it on
// first use. Only the driver goroutine grows the slice (worker closures are
// built before the pool starts), so no locking is needed.
func (r *run) expandSlotFor(slot int) *expandSlot {
	for len(r.expands) <= slot {
		r.expands = append(r.expands, &expandSlot{canon: make([]uint16, r.maxFront+2)})
	}
	return r.expands[slot]
}

// expandLayer expands the parents of the layer whose transition is r.step,
// whose states are rows of from, chunk-parallel into the child arena to,
// and returns the per-chunk logs in chunk order. The log storage (the
// chunk slice and each chunk's event array) is owned by the run and reused
// across layers — the driver fully consumes every log before the next
// expansion starts — so steady-state construction allocates nothing per
// node. On cancellation the partial logs are garbage and the caller must
// propagate the error.
func (r *run) expandLayer(from, to *stateArena, parents []node) ([]expandResult, error) {
	nchunks := (len(parents) + expandChunk - 1) / expandChunk
	for len(r.chunkBuf) < nchunks {
		r.chunkBuf = append(r.chunkBuf, expandResult{})
	}
	out := r.chunkBuf[:nchunks]
	to.resize(r.step.Width, 2*len(parents))
	earlyTerm := !r.cfg.DisableEarlyTermination
	slot := 0
	err := sampling.ForEachChunkCtx(r.ctx, r.cfg.Exec, nchunks, r.workers, func() func(int) {
		es := r.expandSlotFor(slot)
		slot++
		return func(c int) {
			lo := c * expandChunk
			hi := min(lo+expandChunk, len(parents))
			es.expand(&r.step, earlyTerm, from, parents[lo:hi], to, chunkBase(c), &out[c])
		}
	})
	return out, err
}

// expand processes one contiguous slice of a layer's parent nodes,
// recording every produced child as an event into out (reusing its
// storage). Its distinct children go to rows base, base+1, … of the child
// arena to, at most two per parent. Within-chunk dedup keeps one arena row
// per distinct key; the per-child masses stay separate events so the
// replay can reproduce the sequential table bookkeeping exactly.
//
// Each parent costs one relabel pass. The absent-edge child is written
// straight into the chunk's next free row, hashing its labels as it goes.
// The present-edge child differs from it only by the merge of the edge's
// endpoint components cu and cv: when cu == cv it is the same state with
// the same outcome, so it becomes a second event on the same entry, and
// otherwise its row is the absent child's with the merged label folded in.
// Sink rows and within-chunk duplicates are not kept. The outcomes follow
// the sink rules of frontier's package doc, as the test reference refApply
// (reference_test.go) applies them.
func (es *expandSlot) expand(st *frontier.Step, earlyTerm bool, from *stateArena, parents []node, to *stateArena, base int32, out *expandResult) {
	out.events = slices.Grow(out.events[:0], 2*len(parents))
	es.local.reset(2 * expandChunk)
	pIn, pOut := st.Edge.P, 1-st.Edge.P
	next := base // the chunk's next free row
	var abs absent
	for i := range parents {
		n := &parents[i]
		ps := from.view(n.idx)
		src := next
		es.absentChild(st, &ps, to, src, &abs)
		kAbs := abs.counts().kind(st.Unseen, earlyTerm)
		entAbs := es.keep(to, kAbs, &next, abs.ncomp, abs.hash)
		kPre, entPre := kAbs, entAbs
		if abs.cu != abs.cv {
			pre := abs.present()
			if kPre = pre.kind(st.Unseen, earlyTerm); kPre == expandLive {
				// The present child goes to the next free row: the absent
				// child's own, unless that was kept.
				dst := next
				entPre = es.keep(to, kPre, &next, pre.ncomp, to.derive(&abs, src, dst))
			}
		}
		out.events = append(out.events,
			expandEvent{kind: kPre, entry: entPre - base, p: n.p.MulFloat64(pIn)},
			expandEvent{kind: kAbs, entry: entAbs - base, p: n.p.MulFloat64(pOut)})
	}
	out.entries = next - base
}

// keep resolves a child of kind k written at the chunk's next free row,
// *next, with ncomp components and key hash h: a live child that repeats a
// key of the chunk returns that key's row; a new one is kept, indexed and
// returned, and *next moves past it. A sink's row is not kept (its event
// carries no entry).
func (es *expandSlot) keep(a *stateArena, k expandKind, next *int32, ncomp int, h uint64) int32 {
	if k != expandLive {
		return 0
	}
	row := *next
	s := a.pending(row, ncomp)
	if j := es.local.find(a, &s, h); j >= 0 {
		return j
	}
	a.set(row, ncomp, h)
	es.local.add(a, row)
	*next++
	return row
}

// absent is the absent-edge child of a parent, written into a row of the
// child arena, with what its present-edge sibling needs: the endpoints'
// components cu and cv in the parent's extended universe (entering
// endpoints numbered after its components), their child labels a and b
// (-1 when the component keeps no slot), flags and terminal counts.
type absent struct {
	cu, cv       int32
	a, b         int32
	fa, fb       bool
	ta, tb       uint16
	ncomp, alive int
	hash         uint64
}

// childCounts is a child's component count and its flagged components
// alive and retired, from which its outcome follows.
type childCounts struct{ ncomp, alive, retired int }

// kind classifies a child by the sink rules of frontier's package doc.
func (c childCounts) kind(unseen int, earlyTerm bool) expandKind {
	switch {
	case c.retired > 0:
		if c.retired == 1 && c.alive == 0 && unseen == 0 {
			return expandOneSink
		}
		return expandZeroSink
	case earlyTerm && c.alive == 1 && unseen == 0:
		return expandOneSink // all terminals already in one live component (Lemma 4.1)
	}
	return expandLive
}

// absentChild writes the absent-edge child of parent s into row of the
// child arena a and describes it in c.
func (es *expandSlot) absentChild(st *frontier.Step, s *frontier.State, a *stateArena, row int32, c *absent) {
	*c = absent{}
	nOld := int32(len(s.Flag))
	ext := nOld
	var enter [2]int32 // entering endpoints that stay on the frontier
	var extFlag [2]bool
	nEnter := 0
	if st.SlotU >= 0 {
		c.cu = int32(s.Comp[st.SlotU])
	} else {
		c.cu, extFlag[0] = ext, st.UTerm
		ext++
		if !st.URetires {
			enter[nEnter] = c.cu
			nEnter++
		}
	}
	switch {
	case st.SlotV >= 0:
		c.cv = int32(s.Comp[st.SlotV])
	case st.Edge.V == st.Edge.U:
		c.cv = c.cu
	default:
		c.cv, extFlag[ext-nOld] = ext, st.VTerm
		ext++
		if !st.VRetires {
			enter[nEnter] = c.cv
			nEnter++
		}
	}
	c.fa, c.ta = componentFlag(s, extFlag, c.cu)
	c.fb, c.tb = componentFlag(s, extFlag, c.cv)

	at := int(row) * a.f
	comp, flag, tcnt := a.comp[at:at+a.f], a.flag[at:at+a.f], a.tcnt[at:at+a.f]
	canon := es.canon[:ext]
	clear(canon)
	skipU, skipV := int32(-1), int32(-1)
	if st.URetires {
		skipU = st.SlotU
	}
	if st.VRetires {
		skipV = st.SlotV
	}
	// Labels are first-occurrence component numbers over the surviving
	// slots; the key hash takes them four to a word as they are written.
	h, w, k := uint64(a.f)*hashMul, uint64(0), 0
	for slot, x := range s.Comp {
		if int32(slot) == skipU || int32(slot) == skipV {
			continue
		}
		id := canon[x]
		if id == 0 {
			c.ncomp++
			id = uint16(c.ncomp)
			canon[x] = id
			flag[id-1], tcnt[id-1] = s.Flag[x], s.Tcnt[x]
			if s.Flag[x] {
				c.alive++
			}
		}
		comp[k] = id - 1
		h, w = hashLabel(h, w, k, id-1)
		k++
	}
	for _, x := range enter[:nEnter] { // a fresh component each
		f, t := componentFlag(s, extFlag, x)
		comp[k], flag[c.ncomp], tcnt[c.ncomp] = uint16(c.ncomp), f, t
		c.ncomp++
		canon[x] = uint16(c.ncomp)
		if f {
			c.alive++
		}
		h, w = hashLabel(h, w, k, comp[k])
		k++
	}
	c.a, c.b = int32(canon[c.cu])-1, int32(canon[c.cv])-1
	c.hash = hashFlags((h^w)*hashMul, flag[:c.ncomp])
}

// derive writes the present-edge child of c, the absent-edge child at row
// src, into row dst (src itself, or the row after it) and returns its key
// hash. Merging cu's and cv's components renumbers the labels monotonely:
// when both keep slots, the later-numbered one takes the earlier one's
// label and every label after it moves down by one; otherwise the labels
// stay. The merged component carries both flags and both counts.
func (a *stateArena) derive(c *absent, src, dst int32) uint64 {
	f, n := a.f, c.ncomp
	sc, sf, stc := a.comp[int(src)*f:][:f], a.flag[int(src)*f:][:n], a.tcnt[int(src)*f:][:n]
	dc, df, dtc := a.comp[int(dst)*f:][:f], a.flag[int(dst)*f:][:n], a.tcnt[int(dst)*f:][:n]
	h, w := uint64(f)*hashMul, uint64(0)
	into := c.a
	if c.a >= 0 && c.b >= 0 {
		lo, hi := uint16(min(c.a, c.b)), uint16(max(c.a, c.b))
		for k, x := range sc {
			switch {
			case x == hi:
				x = lo
			case x > hi:
				x--
			}
			dc[k] = x
			h, w = hashLabel(h, w, k, x)
		}
		copy(df[:hi], sf[:hi])
		copy(dtc[:hi], stc[:hi])
		copy(df[hi:], sf[hi+1:])
		copy(dtc[hi:], stc[hi+1:])
		n--
		into = int32(lo)
	} else {
		for k, x := range sc {
			dc[k] = x
			h, w = hashLabel(h, w, k, x)
		}
		copy(df, sf)
		copy(dtc, stc)
		if into < 0 {
			into = c.b
		}
	}
	if into >= 0 {
		df[into], dtc[into] = c.fa || c.fb, c.ta+c.tb
	}
	return hashFlags((h^w)*hashMul, df[:n])
}

// componentFlag returns the flag and terminal count of component x of
// parent s's extended universe, whose entering endpoints' flags are ext.
func componentFlag(s *frontier.State, ext [2]bool, x int32) (bool, uint16) {
	if n := int32(len(s.Flag)); x >= n {
		if ext[x-n] {
			return true, 1
		}
		return false, 0
	}
	return s.Flag[x], s.Tcnt[x]
}

// counts returns the absent child's tallies. Only cu's and cv's
// components can lose every slot: any other parent component keeps its
// slots, and entering endpoints are cu or cv.
func (c *absent) counts() childCounts {
	n := childCounts{ncomp: c.ncomp, alive: c.alive}
	if c.a < 0 && c.fa {
		n.retired++
	}
	if c.cv != c.cu && c.b < 0 && c.fb {
		n.retired++
	}
	return n
}

// present returns the present-edge child's tallies when cu != cv: the
// merged component carries both flags and survives if either part does.
// Its row is written by derive.
func (c *absent) present() childCounts {
	n := childCounts{ncomp: c.ncomp, alive: c.alive}
	switch {
	case c.a >= 0 && c.b >= 0:
		n.ncomp--
		if c.fa && c.fb {
			n.alive--
		}
	case c.a >= 0:
		if c.fb && !c.fa {
			n.alive++
		}
	case c.b >= 0:
		if c.fa && !c.fb {
			n.alive++
		}
	case c.fa || c.fb:
		n.retired = 1
	}
	return n
}

// Row resolutions of the replay. Non-negative values are indices into the
// layer's nodes; the first event of a row resolves it, later events reuse
// the resolution without touching the key index.
const (
	entryUnresolved int32 = -1
	entryDeleted    int32 = -2
)

// layerTable is the replay's view of one layer under construction: the
// live children, whose states are rows of the child arena indexed by
// index, and the deleted ones, copied into del, the arena their stratum
// will own. resolve maps a child-arena row to its resolution; for a row
// that became a node, that is the node's index, so a key found in index
// leads to its node.
type layerTable struct {
	arena       *stateArena
	index       *stateTable
	resolve     []int32
	next        []node
	del         *stateArena
	deleted     []snapshot
	deletedMass xfloat.F
}

// replayChunk applies the event log of the chunk whose window starts at
// row base to the layer table, performing exactly the additions, appends,
// and deletions — in exactly the order — a sequential sweep over the
// chunk's parents would. Returns ErrNotExact when an overflow occurs under
// ExactOnly.
func (r *run) replayChunk(ch *expandResult, base int32, t *layerTable) error {
	cfg := &r.cfg
	resolve := t.resolve
	for row := base; row < base+ch.entries; row++ {
		resolve[row] = entryUnresolved
	}
	for i := range ch.events {
		ev := &ch.events[i]
		switch ev.kind {
		case expandOneSink:
			r.pc = r.pc.Add(ev.p)
			continue
		case expandZeroSink:
			r.pd = r.pd.Add(ev.p)
			continue
		}
		row := base + ev.entry
		switch res := resolve[row]; {
		case res >= 0:
			t.next[res].p = t.next[res].p.Add(ev.p)
			r.res.NodesMerged++
		case res == entryDeleted:
			// Repeated overflow of one key: the sequential sweep snapshots
			// each occurrence separately (deleted nodes are not indexed).
			t.delete(row, ev.p)
			r.res.NodesDeleted++
		default: // first event of this row
			s := t.arena.view(row)
			if j := t.index.find(t.arena, &s, t.arena.hash[row]); j >= 0 {
				j = resolve[j]
				resolve[row] = j
				t.next[j].p = t.next[j].p.Add(ev.p)
				r.res.NodesMerged++
			} else if len(t.next) < cfg.MaxWidth {
				t.index.add(t.arena, row)
				resolve[row] = int32(len(t.next))
				t.next = append(t.next, node{idx: row, p: ev.p})
				r.res.NodesCreated++
			} else {
				if cfg.ExactOnly {
					return ErrNotExact
				}
				resolve[row] = entryDeleted
				t.delete(row, ev.p)
				r.res.NodesDeleted++
			}
		}
	}
	return nil
}

// delete snapshots the deleted child at row, of mass p, into the layer's
// stratum.
func (t *layerTable) delete(row int32, p xfloat.F) {
	s := t.arena.view(row)
	if len(t.deleted) == 0 {
		if t.del == nil {
			t.del = &stateArena{}
		}
		t.del.reset(len(s.Comp))
	}
	t.deleted = append(t.deleted, snapshot{idx: t.del.push(&s, 0), p: p})
	t.deletedMass = t.deletedMass.Add(p)
}
