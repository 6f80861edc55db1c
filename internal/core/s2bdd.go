package core

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"time"

	"netrel/internal/estimator"
	"netrel/internal/frontier"
	"netrel/internal/sampling"
	"netrel/internal/telemetry"
	"netrel/internal/ugraph"
	"netrel/internal/xfloat"
)

// node is a live S2BDD node: the arena row of its frontier state and its
// probability mass. It holds no pointers, so a layer of nodes is one flat
// slice the garbage collector need not scan.
type node struct {
	idx int32
	p   xfloat.F
}

// snapshot is a deleted node retained for stratified sampling: a row of
// its stratum's arena and its mass.
type snapshot struct {
	idx int32
	p   xfloat.F
}

// run carries the mutable state of one S2BDD execution.
type run struct {
	ctx  context.Context
	cfg  Config
	plan *frontier.Plan // nil for a root sampler, which builds no diagram
	g    *ugraph.Graph
	k    int

	// ord is the edge processing order and maxFront the widest frontier
	// of any layer; the completers read them instead of the plan.
	ord      []int
	maxFront int

	// tr is the request's telemetry trace (nil when untraced — every use
	// guards on that, so tracing costs the untraced path one pointer
	// check).
	tr *telemetry.Trace

	// rng drives only driver-level decisions (the stochastic rounding of
	// stratum allocations); all completion draws use per-chunk streams
	// derived from (Seed, layer, stratum, chunk) so the sampling phase can
	// run on any number of workers without changing the result.
	rng     *rand.Rand
	workers int
	compls  []*completer  // one per sampling worker slot, created lazily
	edges   *edgeStream   // the completers' shared edge data (planStream)
	expands []*expandSlot // one per construction worker slot, created lazily
	step    frontier.Step // the transition of the layer being expanded

	pc xfloat.F // mass proven connected (1-sink)
	pd xfloat.F // mass proven disconnected (0-sink)

	// sampledMass is the total probability mass handed to strata;
	// estSampled accumulates stratum contributions P_l·f̂_l (with
	// inverse-allocation weighting), so R̂ = pc + estSampled.
	sampledMass xfloat.F
	estSampled  xfloat.F

	remaining []int32 // per-vertex count of unprocessed incident edges

	// chunkBuf is the reusable per-layer chunk-log storage (see
	// expandLayer); stale entries are overwritten before ever being read
	// again. ranks and rankBuf are the reusable priority-sort storage.
	chunkBuf []expandResult
	ranks    []rank
	rankBuf  []rank

	// strata are the recorded stratum schedules (allocation, weight, pick
	// table, frontier copy) in formation order, drawn later by the Sampler
	// (see sampler.go). Construction never reads a draw result, so drawing
	// after it cannot change what gets built.
	strata []*stratumState

	res Result
}

// execute runs construction, recording every stratum it forms. t0 is when
// the construct span began; it is read only when r.tr is set.
func (r *run) execute(t0 time.Time) error {
	cfg := &r.cfg
	m := r.plan.M()
	r.res.SamplesRequested = cfg.Samples

	r.remaining = make([]int32, r.g.N())
	for _, e := range r.g.Edges() {
		r.remaining[e.U]++
		r.remaining[e.V]++
	}

	// Each layer's states live in an arena: the parents' in cur, the
	// children's in next, swapped every layer, as are the node slices.
	// index finds a child's node by key; it, resolve and the arenas only
	// grow. del and deleted take a layer's deleted children; a stratum that
	// records draws keeps them, else the next layer reuses them.
	cur, next := &stateArena{}, &stateArena{}
	var index stateTable
	var resolve []int32
	root := r.plan.Root()
	nodes := []node{{idx: cur.push(&root, 0), p: xfloat.One}}
	var spare []node
	var del *stateArena
	var deleted []snapshot
	r.res.NodesCreated = 1
	r.res.PeakWidth = 1

	// F_l maintained incrementally (the Plan stores only diffs).
	curF := make([]int32, 0, r.plan.MaxFrontier())
	nextF := make([]int32, 0, r.plan.MaxFrontier())

	// Stall detection ring buffer of resolved-mass progress, plus the
	// construction work budget (node-slot operations) derived from the
	// sampling budget.
	progress := make([]float64, stallWindow)
	for i := range progress {
		progress[i] = -1
	}
	work := 0.0
	workBudget := math.Inf(1)
	if cfg.Samples > 0 && !cfg.ExactOnly && !cfg.DisableStall {
		workBudget = DefaultWorkFactor * float64(cfg.Samples) * float64(m)
	}

	flushed := false
	for l := 0; l < m && len(nodes) > 0; l++ {
		// Cancellation is checked per layer here and per expansion chunk
		// inside expandLayer (the sampling phase additionally checks at
		// every completion-chunk boundary). A cancelled run discards all
		// partial state; retries recompute from scratch and, being
		// deterministic per seed, return the identical result.
		if err := r.ctx.Err(); err != nil {
			return err
		}
		r.step = r.plan.Step(l)
		e := r.step.Edge

		// Expand the layer's parents chunk-parallel into next, then replay
		// the chunk logs in chunk order against the width-bounded table —
		// the replay reproduces the sequential sweep's bookkeeping exactly
		// (see expand.go).
		chunks, err := r.expandLayer(cur, next, nodes)
		if err != nil {
			return err
		}
		index.reset(min(2*len(nodes), cfg.MaxWidth))
		resolve = slices.Grow(resolve[:0], len(next.ncomp))[:len(next.ncomp)]
		table := layerTable{arena: next, index: &index, resolve: resolve, next: spare[:0], del: del, deleted: deleted[:0]}
		for ci := range chunks {
			if err := r.replayChunk(&chunks[ci], chunkBase(ci), &table); err != nil {
				return err
			}
		}
		if cfg.NodeBudget > 0 && r.res.NodesCreated > int64(cfg.NodeBudget) {
			return fmt.Errorf("%w: >%d nodes at layer %d/%d", ErrNodeBudget, cfg.NodeBudget, l+1, m)
		}

		// Edge l is now processed: advance the frontier to F_{l+1} and
		// update the remaining-degree counts used by the heuristic.
		nextF = r.plan.AdvanceFrontier(l, curF, nextF)
		curF, nextF = nextF, curF
		r.remaining[e.U]--
		r.remaining[e.V]--

		// Record this layer's deleted stratum (nodes live at layer l+1).
		// Nothing references the parents past this point, so their arena
		// and node slice take the next layer's children.
		del, deleted = table.del, table.deleted
		if len(deleted) > 0 && r.sampleStratum(l+1, curF, del, deleted, table.deletedMass) {
			del, deleted = nil, nil
		}
		cur, next = next, cur
		nodes, spare = table.next, nodes

		// Priority-sort the next layer so that, when it overflows, the
		// lowest-h children are the ones deleted (Algorithm 2 line 34):
		// sort the ranks, then gather the nodes in their order.
		if !cfg.DisableHeuristic {
			r.ranks = slices.Grow(r.ranks[:0], len(nodes))[:len(nodes)]
			if err := r.score(cur, curF, nodes, r.ranks); err != nil {
				return err
			}
			sortRanks(r.ranks, &r.rankBuf)
			spare = slices.Grow(spare[:0], len(nodes))[:len(nodes)]
			for i, rk := range r.ranks {
				spare[i] = nodes[rk.pos]
			}
			nodes, spare = spare, nodes
		}
		if len(nodes) > r.res.PeakWidth {
			r.res.PeakWidth = len(nodes)
		}
		r.res.LayersProcessed = l + 1

		// Flush rules: construction stops — handing the live nodes to a
		// final stratum — when either (a) the resolved mass has stopped
		// growing (bounds stalled), or (b) construction effort has consumed
		// its budget relative to the sampling cost it is meant to save.
		if !cfg.DisableStall && !cfg.ExactOnly && len(nodes) > 0 && cfg.Samples > 0 {
			work += float64(len(nodes)) * float64(len(curF)+4)
			prog := r.pc.Add(r.pd).Add(r.sampledMass).Float64()
			slot := (l + 1) % stallWindow
			old := progress[slot]
			progress[slot] = prog
			if (old >= 0 && prog-old < stallThreshold) || work > workBudget {
				// The stratum keeps its states until drawn, so they move
				// out of the child arena, which also holds merged and
				// deleted children's rows, into one of their own.
				live := &stateArena{}
				live.reset(cur.f)
				live.room(len(nodes))
				liveMass := xfloat.Zero
				flush := make([]snapshot, len(nodes))
				for i := range nodes {
					s := cur.view(nodes[i].idx)
					liveMass = liveMass.Add(nodes[i].p)
					flush[i] = snapshot{idx: live.push(&s, 0), p: nodes[i].p}
				}
				r.sampleStratum(l+1, curF, live, flush, liveMass)
				nodes = nil
				flushed = true
				break
			}
		}
	}
	if err := r.ctx.Err(); err != nil {
		return err
	}
	if len(nodes) != 0 && !flushed {
		return fmt.Errorf("core: %d unresolved states after final layer", len(nodes))
	}
	r.res.Flushed = flushed
	if r.tr != nil {
		// One construct span per subproblem. Recording strata is part of
		// construction; their draws are timed by Sampler.Resume.
		r.tr.Add(telemetry.PhaseConstruct, time.Since(t0))
	}
	return nil
}

// sPrime returns the current Theorem 1 sample budget.
func (r *run) sPrime() int {
	if r.cfg.DisableReduction {
		return r.cfg.Samples
	}
	pc := clamp01(r.pc.Float64())
	pd := clamp01(r.pd.Float64())
	if pc+pd > 1 {
		pd = 1 - pc
	}
	return estimator.ReducedSamples(r.cfg.Samples, pc, pd)
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// scoreChunk is the number of nodes per deterministic scoring unit. A
// node's priority depends on nothing but its own row and mass, so chunk
// boundaries cannot change a score; a layer of one chunk is scored inline.
const scoreChunk = 256

// score sets ranks[i] to the deletion priority and position of nodes[i],
// a node of a layer whose states are rows of arena over the frontier f,
// in node chunks on the run's workers.
func (r *run) score(arena *stateArena, f []int32, nodes []node, ranks []rank) error {
	nchunks := (len(nodes) + scoreChunk - 1) / scoreChunk
	if nchunks <= 1 || r.workers <= 1 {
		r.scoreNodes(r.expandSlotFor(0), arena, f, nodes, ranks, 0)
		return nil
	}
	slot := 0
	return sampling.ForEachChunkCtx(r.ctx, r.cfg.Exec, nchunks, r.workers, func() func(int) {
		es := r.expandSlotFor(slot)
		slot++
		return func(c int) {
			lo, hi := c*scoreChunk, min((c+1)*scoreChunk, len(nodes))
			r.scoreNodes(es, arena, f, nodes[lo:hi], ranks[lo:hi], lo)
		}
	})
}

// scoreNodes ranks nodes, which start at position lo of their layer, with
// es's scratch.
func (r *run) scoreNodes(es *expandSlot, arena *stateArena, f []int32, nodes []node, ranks []rank, lo int) {
	for i := range nodes {
		st := arena.view(nodes[i].idx)
		ranks[i] = rank{key: rankKey(r.heuristic(f, &st, nodes[i].p, &es.hbuf)), pos: int32(lo + i)}
	}
}

// heuristic computes log h(n) (Equation 10): h(n) = p_n · max over frontier
// components with t > 0 of max(t/k, 1/d), where d is the component's count
// of incident uncertain edges. Nodes with no terminal-carrying component
// yet are scored with a small constant in place of the max term. buf is
// the caller's per-component scratch.
func (r *run) heuristic(f []int32, st *frontier.State, p xfloat.F, buf *[]int32) float64 {
	const unflaggedScore = 1e-6
	if p.IsZero() {
		// A node can carry exactly zero mass when the graph has certain
		// (p = 1) edges — e.g. evidence conditioning — and the node lies on
		// such an edge's absent branch. It contributes nothing to any sink,
		// so it is the first to delete: log h(n) = −∞.
		return math.Inf(-1)
	}
	best := 0.0
	// d per component: sum of remaining uncertain edges over member slots.
	*buf = slices.Grow((*buf)[:0], len(st.Flag))[:len(st.Flag)]
	d := *buf
	clear(d)
	for slot, v := range f {
		d[st.Comp[slot]] += r.remaining[v]
	}
	for comp, flagged := range st.Flag {
		if !flagged || st.Tcnt[comp] == 0 {
			continue
		}
		score := float64(st.Tcnt[comp]) / float64(r.k)
		if d[comp] > 0 {
			if inv := 1 / float64(d[comp]); inv > score {
				score = inv
			}
		}
		if score > best {
			best = score
		}
	}
	if best == 0 {
		best = unflaggedScore
	}
	return p.Log() + math.Log(best)
}

// sampleStratum records one stratum (the deleted nodes of one layer, or the
// flushed live nodes, whose states are rows of arena) for the Sampler to
// draw, and reports whether it scheduled any draws; if so, the stratum
// keeps arena and snaps until they are done. Allocation is s′·P_l with
// stochastic rounding and inverse-allocation weighting, which keeps the
// combined estimator unbiased even when a stratum's expected allocation is
// below one sample. The draws themselves use streams seeded from (Seed, layer,
// stratum, chunk) and fold in chunk order, so the estimate does not depend
// on the worker count or on how Resume calls split it (see parallel.go).
func (r *run) sampleStratum(layer int, front []int32, arena *stateArena, snaps []snapshot, mass xfloat.F) bool {
	r.res.Strata++
	stratum := r.res.Strata // 1-based stratum ordinal, deterministic
	r.sampledMass = r.sampledMass.Add(mass)
	st := r.scheduleStratum(mass)
	if st == nil {
		return false
	}
	// front is a reused buffer, so it is copied.
	st.layer, st.ordinal, st.front, st.arena, st.snaps = layer, stratum, append([]int32(nil), front...), arena, snaps
	st.unseen = r.plan.UnseenTerms(layer)
	// Node choice is proportional to node mass within the stratum. cum is
	// built once, before any chunk runs, and read concurrently by all chunks.
	st.cum = make([]float64, len(snaps))
	for i := range snaps {
		st.acc += snaps[i].p.Div(mass).Float64()
		st.cum[i] = st.acc
	}
	if r.cfg.Estimator == estimator.HorvitzThompson {
		st.seen = make(map[uint64]bool, st.draws)
	}
	r.strata = append(r.strata, st)
	return true
}

// scheduleStratum allocates a stratum of the given mass its draws and
// inverse-allocation weight, or returns nil when it gets none (bounds-only
// mode, a zero budget, or an allocation that rounds to zero).
func (r *run) scheduleStratum(mass xfloat.F) *stratumState {
	if r.cfg.Samples == 0 {
		return nil // bounds-only mode
	}
	sp := r.sPrime()
	r.res.SamplesReduced = sp
	if sp == 0 {
		return nil
	}
	x := mass.MulFloat64(float64(sp)).Float64()
	if x <= 0 {
		// Expected allocation underflowed float64: skip, account the bias.
		r.res.StrataSkippedMass += mass.Float64()
		return nil
	}
	draws := int(math.Floor(x))
	frac := x - math.Floor(x)
	if r.rng.Float64() < frac {
		draws++
	}
	if draws == 0 {
		return nil
	}
	// Inverse-allocation weight: a stratum with expected allocation x < 1
	// is sampled with probability x; weighting by 1/x restores
	// unbiasedness of the contribution.
	weight := 1.0
	if x < 1 {
		weight = 1 / x
	}
	return &stratumState{mass: mass, weight: weight, draws: draws}
}

// finalize assembles the Result.
func (r *run) finalize() (Result, error) {
	res := r.res
	for _, c := range r.compls {
		res.Flips += c.flips
	}
	res.LowerX = r.pc.Clamp01()
	res.UnresolvedX = r.sampledMass
	res.Lower = res.LowerX.Float64()
	upper := r.pc.Add(r.sampledMass).Clamp01()
	res.Upper = upper.Float64()

	exact := res.Strata == 0
	res.Exact = exact
	if exact {
		res.EstimateX = r.pc.Clamp01()
		res.Estimate = res.EstimateX.Float64()
		res.SamplesReduced = 0
		res.SamplesReducedRaw = 0
		res.Variance = 0
		return res, nil
	}

	if r.cfg.Samples == 0 {
		// Bounds-only: report the midpoint.
		res.EstimateX = r.pc.Add(r.sampledMass.MulFloat64(0.5)).Clamp01()
	} else {
		est := r.pc.Add(r.estSampled)
		// Clamp into the proven bounds: allocation weighting can push the
		// raw estimate marginally outside them.
		if est.Cmp(r.pc) < 0 {
			est = r.pc
		}
		if est.Cmp(upper) > 0 {
			est = upper
		}
		res.EstimateX = est.Clamp01()
	}
	res.Estimate = res.EstimateX.Float64()

	pc := clamp01(res.Lower)
	pd := clamp01(r.pd.Float64())
	if pc+pd > 1 {
		pd = 1 - pc
	}
	res.SamplesReducedRaw = estimator.ReducedSamplesRaw(r.cfg.Samples, pc, pd)
	if r.cfg.DisableReduction {
		res.SamplesReduced = r.cfg.Samples
	} else {
		res.SamplesReduced = estimator.ReducedSamples(r.cfg.Samples, pc, pd)
	}
	res.Variance = estimator.StratifiedMCVariance(res.Estimate, pc, pd, max(res.SamplesReduced, 1))
	return res, nil
}
