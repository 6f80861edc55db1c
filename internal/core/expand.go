// Parallel construction of the S2BDD layers.
//
// Layer expansion is sharded the way the exact baseline's is
// (internal/bdd/parallel.go): a layer's parent nodes are split into
// fixed-size chunks whose boundaries depend only on the layer width, chunks
// expand concurrently on up to Workers slots (engine-pool
// goroutines when cfg.Exec is set), and the driver consumes per-chunk
// outputs in chunk order.
//
// Unlike the exact baseline, the S2BDD cannot merge whole per-chunk child
// tables: whether a child merges into the layer, occupies a fresh node slot,
// or is deleted into a sampling stratum depends on the global,
// order-dependent fill state of the width-bounded table. Chunks therefore do
// only the schedule-independent work — Apply, key construction, within-chunk
// deduplication — and record an event log; the driver replays the logs in
// (chunk, event) order against the global table. Replay order equals the
// sequential sweep's child order, so every xfloat addition, node ID,
// deletion, stratum mass, and downstream SeedStream(seed, layer, stratum,
// chunk) draw is bit-identical for any worker count — including one, which
// makes the chunked construction the schedule rather than an approximation
// of it.
package core

import (
	"netrel/internal/frontier"
	"netrel/internal/sampling"
	"netrel/internal/xfloat"
)

// expandChunk is the number of parent nodes per deterministic expansion
// unit. Chunk boundaries depend only on the layer width, never on the
// worker count. The grain is finer than the exact baseline's (whose layers
// are unbounded): S2BDD layers are capped at MaxWidth, and a chunk of 64
// parents still costs ≳100µs of Apply work on the dense graphs where
// construction parallelism matters, dwarfing the atomic chunk-claim.
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

// expandEntry is one distinct live-child key produced by a chunk, in
// first-encounter order. Its state storage comes from the producing slot's
// pool; the replay hands it to the layer table or a deletion snapshot (or
// returns it to the driver pool when the key already exists globally).
type expandEntry struct {
	key   string
	state frontier.State
}

// expandResult is a chunk's output log.
type expandResult struct {
	events  []expandEvent
	entries []expandEntry
}

// expandSlot is the per-worker scratch of the construction phase: Apply
// buffers, a key buffer, the within-chunk dedup map, and a state pool the
// driver refills between layers.
type expandSlot struct {
	sc      *frontier.Scratch
	scratch frontier.State
	keyBuf  []byte
	local   map[string]int32
	pool    frontier.StatePool
}

// expandSlotFor returns the worker-slot expansion scratch, creating it on
// first use. Only the driver goroutine grows the slice (worker closures are
// built before the pool starts), so no locking is needed.
func (r *run) expandSlotFor(slot int) *expandSlot {
	for len(r.expands) <= slot {
		r.expands = append(r.expands, &expandSlot{
			sc:    frontier.NewScratch(r.plan),
			local: make(map[string]int32, 2*expandChunk),
		})
	}
	return r.expands[slot]
}

// distributeFree rebalances recycled state storage across the expansion
// slots: every slot pool first drains back to the driver, then each slot
// gets an equal share, with one share kept back for the driver (the replay
// needs storage for repeated deletions of one key). The drain step matters
// under a saturated engine: a slot whose TryGo offer was refused never ran
// — and so never spent its share — and without reclamation it would hoard
// a share per layer while the running slots allocate fresh. Called between
// layers while every slot is idle.
func (r *run) distributeFree() {
	if len(r.expands) == 0 {
		return
	}
	for _, es := range r.expands {
		es.pool.MoveTo(&r.pool, es.pool.Len())
	}
	share := r.pool.Len() / (len(r.expands) + 1)
	for _, es := range r.expands {
		r.pool.MoveTo(&es.pool, share)
	}
}

// expandLayer expands layer l's parents chunk-parallel and returns the
// per-chunk logs in chunk order. The log storage (the chunk slice and each
// chunk's event/entry arrays) is owned by the run and reused across layers
// — the driver fully consumes every log before the next expansion starts —
// so steady-state construction allocates only key strings and fresh node
// states, as the sequential sweep did. On cancellation the partial logs
// are garbage and the caller must propagate the error.
func (r *run) expandLayer(l int, parents []node) ([]expandResult, error) {
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
		return func(c int) {
			lo := c * expandChunk
			hi := min(lo+expandChunk, len(parents))
			es.expand(r.plan, l, parents[lo:hi], earlyTerm, &out[c])
		}
	})
	return out, err
}

// expand processes one contiguous slice of a layer's parent nodes,
// recording every produced child as an event into out (reusing its
// storage). Within-chunk dedup keeps one state copy per distinct key; the
// per-child masses stay separate events so the replay can reproduce the
// sequential table bookkeeping exactly.
func (es *expandSlot) expand(plan *frontier.Plan, l int, parents []node, earlyTerm bool, out *expandResult) {
	out.events = out.events[:0]
	out.entries = out.entries[:0]
	e := plan.EdgeAt(l)
	clear(es.local)
	for i := range parents {
		n := &parents[i]
		for _, exists := range [2]bool{true, false} {
			w := e.P
			if !exists {
				w = 1 - e.P
			}
			childP := n.p.MulFloat64(w)
			switch plan.Apply(l, &n.state, exists, earlyTerm, es.sc, &es.scratch) {
			case frontier.OneSink:
				out.events = append(out.events, expandEvent{kind: expandOneSink, p: childP})
			case frontier.ZeroSink:
				out.events = append(out.events, expandEvent{kind: expandZeroSink, p: childP})
			case frontier.Live:
				es.keyBuf = es.scratch.Key(es.keyBuf[:0])
				j, ok := es.local[string(es.keyBuf)]
				if !ok {
					j = int32(len(out.entries))
					k := string(es.keyBuf)
					es.local[k] = j
					out.entries = append(out.entries, expandEntry{key: k, state: es.pool.Take(&es.scratch)})
				}
				out.events = append(out.events, expandEvent{kind: expandLive, entry: j, p: childP})
			}
		}
	}
}

// Entry resolutions of the replay. Non-negative values are layer-table
// slots; the first event of an entry resolves it, later events reuse the
// resolution without touching the key index.
const (
	entryUnresolved int32 = -1
	entryDeleted    int32 = -2
)

// layerTable is the replay's view of one layer under construction.
type layerTable struct {
	next        []node
	index       map[string]int
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
		switch res := resolve[ev.entry]; {
		case res >= 0:
			t.next[res].p = t.next[res].p.Add(ev.p)
			r.res.NodesMerged++
		case res == entryDeleted:
			// Repeated overflow of one key: the sequential sweep snapshots
			// each occurrence separately (deleted nodes are not indexed),
			// so copy the entry's state for this one.
			ent := &ch.entries[ev.entry]
			t.deleted = append(t.deleted, snapshot{state: r.pool.Take(&ent.state), p: ev.p})
			t.deletedMass = t.deletedMass.Add(ev.p)
			r.res.NodesDeleted++
		default: // first event of this entry
			ent := &ch.entries[ev.entry]
			if j, ok := t.index[ent.key]; ok {
				resolve[ev.entry] = int32(j)
				t.next[j].p = t.next[j].p.Add(ev.p)
				r.res.NodesMerged++
				r.pool.Put(ent.state) // state already represented globally
			} else if len(t.next) < cfg.MaxWidth {
				resolve[ev.entry] = int32(len(t.next))
				t.index[ent.key] = len(t.next)
				t.next = append(t.next, node{state: ent.state, p: ev.p})
				r.res.NodesCreated++
			} else {
				if cfg.ExactOnly {
					return ErrNotExact
				}
				resolve[ev.entry] = entryDeleted
				t.deleted = append(t.deleted, snapshot{state: ent.state, p: ev.p})
				t.deletedMass = t.deletedMass.Add(ev.p)
				r.res.NodesDeleted++
			}
		}
	}
	return nil
}
