package core

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"time"

	"netrel/internal/estimator"
	"netrel/internal/frontier"
	"netrel/internal/telemetry"
	"netrel/internal/ugraph"
	"netrel/internal/xfloat"
)

// node is a live S2BDD node: a frontier state with its probability mass and
// cached deletion priority (log-space h(n) of Equation 10).
type node struct {
	state frontier.State
	p     xfloat.F
	hLog  float64
}

// snapshot is a deleted node retained for stratified sampling.
type snapshot struct {
	state frontier.State
	p     xfloat.F
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

	pc xfloat.F // mass proven connected (1-sink)
	pd xfloat.F // mass proven disconnected (0-sink)

	// sampledMass is the total probability mass handed to strata;
	// estSampled accumulates stratum contributions P_l·f̂_l (with
	// inverse-allocation weighting), so R̂ = pc + estSampled.
	sampledMass xfloat.F
	estSampled  xfloat.F

	remaining []int32 // per-vertex count of unprocessed incident edges

	// pool is the driver's share of the recycled state storage; the
	// expansion slots hold the rest (see distributeFree). Construction
	// creates and discards up to 2w states per layer, and reusing their
	// slices removes the allocation churn from the hot loop.
	pool frontier.StatePool

	// chunkBuf is the reusable per-layer chunk-log storage (see
	// expandLayer); stale entries alias moved states but are overwritten
	// before ever being read again.
	chunkBuf []expandResult

	// strata are the recorded stratum schedules (allocation, weight, pick
	// table, frontier copy) in formation order, drawn later by the Sampler
	// (see sampler.go). Construction never reads a draw result, so drawing
	// after it cannot change what gets built.
	strata []*stratumState

	res Result
}

// recycle returns snapshot state storage to the driver pool.
func (r *run) recycle(states []snapshot) {
	for i := range states {
		r.pool.Put(states[i].state)
	}
}

// execute runs construction, recording every stratum it forms.
func (r *run) execute() error {
	cfg := &r.cfg
	m := r.plan.M()
	r.res.SamplesRequested = cfg.Samples
	var t0 time.Time
	if r.tr != nil {
		t0 = time.Now()
	}

	r.remaining = make([]int32, r.g.N())
	for _, e := range r.g.Edges() {
		r.remaining[e.U]++
		r.remaining[e.V]++
	}

	nodes := []node{{state: r.plan.Root(), p: xfloat.One}}
	r.res.NodesCreated = 1
	r.res.PeakWidth = 1

	// F_l maintained incrementally (the Plan stores only diffs).
	curF := make([]int32, 0, r.plan.MaxFrontier())
	nextF := make([]int32, 0, r.plan.MaxFrontier())

	// Stall detection ring buffer of resolved-mass progress, plus the
	// construction work budget (node-slot operations) derived from the
	// sampling budget.
	progress := make([]float64, cfg.StallWindow)
	for i := range progress {
		progress[i] = -1
	}
	work := 0.0
	workBudget := math.Inf(1)
	if cfg.Samples > 0 && !cfg.ExactOnly && !cfg.DisableStall {
		workBudget = cfg.WorkFactor * float64(cfg.Samples) * float64(m)
	}

	flushed := false
	index := make(map[string]int, 256)
	var resolve []int32
	for l := 0; l < m && len(nodes) > 0; l++ {
		// Cancellation is checked per layer here and per expansion chunk
		// inside expandLayer (the sampling phase additionally checks at
		// every completion-chunk boundary). A cancelled run discards all
		// partial state; retries recompute from scratch and, being
		// deterministic per seed, return the identical result.
		if err := r.ctx.Err(); err != nil {
			return err
		}
		e := r.plan.EdgeAt(l)

		// Expand the layer's parents chunk-parallel, then replay the chunk
		// logs in chunk order against the width-bounded table — the replay
		// reproduces the sequential sweep's bookkeeping exactly (see
		// expand.go).
		r.distributeFree()
		chunks, err := r.expandLayer(l, nodes)
		if err != nil {
			return err
		}
		clear(index)
		table := layerTable{
			next:  make([]node, 0, min(2*len(nodes), cfg.MaxWidth)),
			index: index,
		}
		for ci := range chunks {
			ch := &chunks[ci]
			if cap(resolve) < len(ch.entries) {
				resolve = make([]int32, len(ch.entries))
			} else {
				resolve = resolve[:len(ch.entries)]
			}
			for i := range resolve {
				resolve[i] = entryUnresolved
			}
			if err := r.replayChunk(ch, &table, resolve); err != nil {
				return err
			}
		}
		next, deleted, deletedMass := table.next, table.deleted, table.deletedMass

		// Edge l is now processed: advance the frontier to F_{l+1} and
		// update the remaining-degree counts used by the heuristic.
		nextF = r.plan.AdvanceFrontier(l, curF, nextF)
		curF, nextF = nextF, curF
		r.remaining[e.U]--
		r.remaining[e.V]--

		// Record this layer's deleted stratum (nodes live at layer l+1),
		// then recycle the parents' state storage, which nothing references
		// past this point.
		if len(deleted) > 0 {
			r.sampleStratum(l+1, curF, deleted, deletedMass)
		}
		for i := range nodes {
			r.pool.Put(nodes[i].state)
		}

		// Priority-sort the next layer so that, when it overflows, the
		// lowest-h children are the ones deleted (Algorithm 2 line 34).
		if !cfg.DisableHeuristic {
			for i := range next {
				next[i].hLog = r.heuristic(curF, &next[i])
			}
			sort.Slice(next, func(a, b int) bool { return next[a].hLog > next[b].hLog })
		}
		nodes = next
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
			slot := (l + 1) % cfg.StallWindow
			old := progress[slot]
			progress[slot] = prog
			if (old >= 0 && prog-old < cfg.StallThreshold) || work > workBudget {
				liveMass := xfloat.Zero
				for i := range nodes {
					liveMass = liveMass.Add(nodes[i].p)
				}
				flush := make([]snapshot, len(nodes))
				for i := range nodes {
					flush[i] = snapshot{state: nodes[i].state, p: nodes[i].p}
				}
				r.sampleStratum(l+1, curF, flush, liveMass)
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

// heuristic computes log h(n) (Equation 10): h(n) = p_n · max over frontier
// components with t > 0 of max(t/k, 1/d), where d is the component's count
// of incident uncertain edges. Nodes with no terminal-carrying component
// yet are scored with a small constant in place of the max term.
func (r *run) heuristic(f []int32, n *node) float64 {
	const unflaggedScore = 1e-6
	if n.p.IsZero() {
		// A node can carry exactly zero mass when the graph has certain
		// (p = 1) edges — e.g. evidence conditioning — and the node lies on
		// such an edge's absent branch. It contributes nothing to any sink,
		// so it is the first to delete: log h(n) = −∞.
		return math.Inf(-1)
	}
	st := &n.state
	best := 0.0
	// d per component: sum of remaining uncertain edges over member slots.
	var dbuf [64]int32
	var d []int32
	if len(st.Flag) <= len(dbuf) {
		d = dbuf[:len(st.Flag)]
		for i := range d {
			d[i] = 0
		}
	} else {
		d = make([]int32, len(st.Flag))
	}
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
	return n.p.Log() + math.Log(best)
}

// sampleStratum records one stratum (the deleted nodes of one layer, or the
// flushed live nodes) for the Sampler to draw, and takes ownership of
// snaps: they go back to the pool exactly once, when the stratum is
// finished or found to need no draws. Allocation is s′·P_l with stochastic
// rounding and inverse-allocation weighting, which keeps the combined
// estimator unbiased even when a stratum's expected allocation is below one
// sample. The draws themselves use streams seeded from (Seed, layer,
// stratum, chunk) and fold in chunk order, so the estimate does not depend
// on the worker count or on how Resume calls split it (see parallel.go).
func (r *run) sampleStratum(layer int, front []int32, snaps []snapshot, mass xfloat.F) {
	r.res.Strata++
	stratum := r.res.Strata // 1-based stratum ordinal, deterministic
	r.sampledMass = r.sampledMass.Add(mass)
	st := r.scheduleStratum(mass)
	if st == nil {
		r.recycle(snaps)
		return
	}
	// front is a reused buffer, so it is copied.
	st.layer, st.ordinal, st.front, st.snaps = layer, stratum, append([]int32(nil), front...), snaps
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
