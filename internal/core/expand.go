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
// schedule-independent work — Apply, key hashing, within-chunk
// deduplication — and record an event log; the driver replays the logs in
// (chunk, event) order against the global table. Replay order equals the
// sequential sweep's child order, so every xfloat addition, node ID,
// deletion, stratum mass, and downstream SeedStream(seed, layer, stratum,
// chunk) draw is bit-identical for any worker count — including one, which
// makes the chunked construction the schedule rather than an approximation
// of it. The node budget (Config.NodeBudget) is checked once a layer's
// replay is done, so it too sees only the schedule-independent count.
//
// No node owns heap storage. A layer's states are rows of a stateArena
// (arena.go): every chunk reads the parents' arena, each worker slot
// pushes its chunks' distinct children into an arena of its own, and the
// replay copies each new node into the next layer's arena and each deleted
// child into the arena its stratum keeps. Keys are 64-bit hashes checked
// against the rows in open-addressing stateTables, so construction
// allocates per layer and per stratum, never per node.
package core

import (
	"slices"

	"netrel/internal/frontier"
	"netrel/internal/sampling"
	"netrel/internal/xfloat"
)

// expandChunk is the number of parent nodes per deterministic expansion
// unit. Chunk boundaries depend only on the layer width, never on the
// worker count. A chunk of 64 parents costs ≳100µs of Apply work on the
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

// expandResult is a chunk's output log. The chunk's entries distinct live
// children are rows base, base+1, … of arena, the producing slot's, in
// first-encounter order; an event's entry is its row less base.
type expandResult struct {
	events  []expandEvent
	arena   *stateArena
	base    int32
	entries int32
}

// expandSlot is the per-worker scratch of the construction phase: Apply
// buffers, the arena holding the distinct children of the slot's chunks
// in the current layer, and the within-chunk dedup table.
type expandSlot struct {
	sc      *frontier.Scratch
	scratch frontier.State
	arena   stateArena
	local   stateTable
}

// expandSlotFor returns the worker-slot expansion scratch, creating it on
// first use. Only the driver goroutine grows the slice (worker closures are
// built before the pool starts), so no locking is needed.
func (r *run) expandSlotFor(slot int) *expandSlot {
	for len(r.expands) <= slot {
		r.expands = append(r.expands, &expandSlot{sc: frontier.NewScratch(r.plan)})
	}
	return r.expands[slot]
}

// expandLayer expands layer l's parents, whose states are rows of from,
// chunk-parallel and returns the per-chunk logs in chunk order. The log
// storage (the chunk slice, each chunk's event array and each slot's
// arena) is owned by the run and reused across layers — the driver fully
// consumes every log before the next expansion starts — so steady-state
// construction allocates nothing per node. On cancellation the partial
// logs are garbage and the caller must propagate the error.
func (r *run) expandLayer(l int, from *stateArena, parents []node) ([]expandResult, error) {
	nchunks := (len(parents) + expandChunk - 1) / expandChunk
	for len(r.chunkBuf) < nchunks {
		r.chunkBuf = append(r.chunkBuf, expandResult{})
	}
	out := r.chunkBuf[:nchunks]
	earlyTerm := !r.cfg.DisableEarlyTermination
	slot := 0
	err := sampling.ForEachChunkCtx(r.ctx, r.cfg.Exec, nchunks, r.workers, func() func(int) {
		es := r.expandSlotFor(slot)
		slot++
		es.arena.reset()
		return func(c int) {
			lo := c * expandChunk
			hi := min(lo+expandChunk, len(parents))
			es.expand(r.plan, l, from, parents[lo:hi], earlyTerm, &out[c])
		}
	})
	return out, err
}

// expand processes one contiguous slice of a layer's parent nodes,
// recording every produced child as an event into out (reusing its
// storage). Within-chunk dedup keeps one arena row per distinct key; the
// per-child masses stay separate events so the replay can reproduce the
// sequential table bookkeeping exactly.
func (es *expandSlot) expand(plan *frontier.Plan, l int, from *stateArena, parents []node, earlyTerm bool, out *expandResult) {
	out.events = slices.Grow(out.events[:0], 2*len(parents))
	out.arena, out.base = &es.arena, int32(len(es.arena.ncomp))
	es.local.reset(2 * expandChunk)
	e := plan.EdgeAt(l)
	for i := range parents {
		n := &parents[i]
		ps := from.view(n.idx)
		for _, exists := range [2]bool{true, false} {
			w := e.P
			if !exists {
				w = 1 - e.P
			}
			childP := n.p.MulFloat64(w)
			switch plan.Apply(l, &ps, exists, earlyTerm, es.sc, &es.scratch) {
			case frontier.OneSink:
				out.events = append(out.events, expandEvent{kind: expandOneSink, p: childP})
			case frontier.ZeroSink:
				out.events = append(out.events, expandEvent{kind: expandZeroSink, p: childP})
			case frontier.Live:
				h := hashKey(&es.scratch)
				row := es.local.find(&es.arena, &es.scratch, h)
				if row < 0 {
					row = es.arena.push(&es.scratch, h)
					es.local.add(&es.arena, row)
				}
				out.events = append(out.events, expandEvent{kind: expandLive, entry: row - out.base, p: childP})
			}
		}
	}
	out.entries = int32(len(es.arena.ncomp)) - out.base
}

// Entry resolutions of the replay. Non-negative values are layer-table
// slots; the first event of an entry resolves it, later events reuse the
// resolution without touching the key index.
const (
	entryUnresolved int32 = -1
	entryDeleted    int32 = -2
)

// layerTable is the replay's view of one layer under construction: the
// live children, whose states are rows of arena indexed by index (a node's
// slot is its row), and the deleted ones, copied into del, the arena their
// stratum will own.
type layerTable struct {
	arena       *stateArena
	index       *stateTable
	next        []node
	del         *stateArena
	deleted     []snapshot
	deletedMass xfloat.F
}

// replayChunk applies one chunk's event log to the layer table, performing
// exactly the additions, appends, and deletions — in exactly the order — a
// sequential sweep over the chunk's parents would. Returns ErrNotExact when
// an overflow occurs under ExactOnly.
func (r *run) replayChunk(ch *expandResult, t *layerTable, resolve []int32) error {
	cfg := &r.cfg
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
		row := ch.base + ev.entry
		s := ch.arena.view(row)
		switch res := resolve[ev.entry]; {
		case res >= 0:
			t.next[res].p = t.next[res].p.Add(ev.p)
			r.res.NodesMerged++
		case res == entryDeleted:
			// Repeated overflow of one key: the sequential sweep snapshots
			// each occurrence separately (deleted nodes are not indexed).
			t.delete(&s, ev.p)
			r.res.NodesDeleted++
		default: // first event of this entry
			h := ch.arena.hash[row]
			if j := t.index.find(t.arena, &s, h); j >= 0 {
				resolve[ev.entry] = j
				t.next[j].p = t.next[j].p.Add(ev.p)
				r.res.NodesMerged++
			} else if len(t.next) < cfg.MaxWidth {
				j := t.arena.push(&s, h)
				t.index.add(t.arena, j)
				resolve[ev.entry] = j
				t.next = append(t.next, node{idx: j, p: ev.p})
				r.res.NodesCreated++
			} else {
				if cfg.ExactOnly {
					return ErrNotExact
				}
				resolve[ev.entry] = entryDeleted
				t.delete(&s, ev.p)
				r.res.NodesDeleted++
			}
		}
	}
	return nil
}

// delete snapshots a deleted child of mass p into the layer's stratum.
func (t *layerTable) delete(s *frontier.State, p xfloat.F) {
	if len(t.deleted) == 0 {
		if t.del == nil {
			t.del = &stateArena{}
		}
		t.del.reset()
	}
	t.deleted = append(t.deleted, snapshot{idx: t.del.push(s, 0), p: p})
	t.deletedMass = t.deletedMass.Add(p)
}
