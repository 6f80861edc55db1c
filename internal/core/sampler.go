// Resumable S2BDD sampling: the only way the S2BDD and the plain MC/HT
// baselines draw. The S2BDD draws through NewSampler, the baselines
// through NewRootSampler, an S2BDD that builds no layers.
//
// NewSampler runs construction once, up front, with the full sample budget
// — stratum allocation, stochastic rounding and the flush rules all see the
// whole schedule — and records each stratum's draws instead of making them.
// Resume(k) then advances the recorded schedule k draws at a time. Every
// chunk draws from its own (Seed, layer, stratum, chunk) stream, and a draw
// at layer l consumes exactly 1 + (M − l) variates (the pick, then one per
// remaining edge, whether its coin was flipped or not), so a partial chunk
// re-derives its stream and jumps it to the draw where the previous call
// stopped. Resume(k₁) followed by Resume(k₂) therefore folds bit-identically
// to a single Resume(k₁+k₂) for any worker count, and a single
// Resume(Remaining()) is the whole solve.
//
// The trade is memory: every recorded stratum keeps its snapshots until
// its draws are done, so a run holds all of its strata at once rather
// than one at a time.
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
	"netrel/internal/sampling"
	"netrel/internal/telemetry"
	"netrel/internal/ugraph"
	"netrel/internal/xfloat"
)

// stratumState is one stratum's recorded schedule plus its partial fold.
// Strata are drawn strictly in formation order, and within a stratum in
// draw order, so the fold order never depends on how Resume calls split
// the schedule.
type stratumState struct {
	layer   int
	ordinal int         // 1-based stratum index (r.res.Strata when it formed)
	front   []int32     // frontier (a copy: execute reuses its buffers)
	unseen  []int32     // the terminals no edge before layer touches
	arena   *stateArena // the snapshots' states
	snaps   []snapshot
	mass    xfloat.F
	weight  float64
	cum     []float64
	acc     float64
	draws   int // scheduled draws (the stratum's allocation)
	drawn   int // draws completed so far

	conn int                  // Monte Carlo fold: connected count
	ht   estimator.HTEstimate // Horvitz–Thompson fold
	seen map[uint64]bool      // HT dedup, keyed by mixed fingerprint
}

// Sampler is a resumable S2BDD run: construction is complete, sampling
// advances on demand. Not safe for concurrent use; Resume itself fans the
// whole-chunk work out across the configured workers.
type Sampler struct {
	r     *run
	fixed *Result // trivially exact query (fewer than two terminals)
	cur   int     // first stratum with draws outstanding
	total int     // scheduled draws across all strata
	err   error   // sticky: a failed Resume poisons the sampler

	// Monotone anytime interval: the running intersection of per-call
	// confidence intervals, clamped to the proven bounds.
	lo, hi float64
	hasIv  bool
}

// NewSampler validates the query, runs S2BDD construction with the full
// schedule of cfg recorded, and returns the sampler positioned at draw
// zero. An exact query (no strata) yields a sampler with Remaining() == 0
// whose Result is the exact answer. A ctx already done when NewSampler is
// called returns ctx.Err() before any planning. Construction checks ctx at
// every layer and at every expansion-chunk boundary within a layer, so a
// cancelled call returns ctx.Err() promptly; ctx never influences the
// arithmetic, so a retry builds exactly what an uninterrupted call would
// have.
func NewSampler(ctx context.Context, g *ugraph.Graph, ts ugraph.Terminals, cfg Config) (*Sampler, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if cfg.Samples < 0 {
		return nil, fmt.Errorf("core: negative sample count %d", cfg.Samples)
	}
	if len(ts) <= 1 {
		return singleTerminal(cfg.Samples), nil
	}
	ord := cfg.Order
	if ord == nil {
		ord = naturalOrder(g.M())
	}
	// The construct span covers planning too.
	tr := telemetry.FromContext(ctx)
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	plan, err := frontier.NewPlan(g, ts, ord)
	if err != nil {
		return nil, err
	}
	r := &run{
		ctx:      ctx,
		cfg:      cfg,
		plan:     plan,
		g:        g,
		k:        len(ts),
		ord:      ord,
		maxFront: plan.MaxFrontier(),
		tr:       tr,
		rng:      rand.New(rand.NewPCG(cfg.Seed, 0xa0761d6478bd642f)),
		workers:  sampling.ClampWorkers(cfg.Workers, 0),
	}
	if err := r.execute(t0); err != nil {
		return nil, err
	}
	s := &Sampler{r: r}
	for _, st := range r.strata {
		s.total += st.draws
	}
	return s, nil
}

// NewRootSampler returns the sampler of the paper's plain possible-world
// baseline: one stratum, the root state at layer 0, holding mass 1 and
// all cfg.Samples draws. Each draw is then a whole-graph completion, MC or
// HT, on the same chunk streams as an S2BDD stratum, so the answer is the
// same for any worker count, and its variance, Eq. 3 at pc = pd = 0, is
// Eq. 2 bit for bit. It builds no diagram and no frontier plan, so it also
// takes terminals with no edge and graphs whose frontiers would outgrow
// frontier.MaxFrontierWidth. Of cfg it reads only Samples, which must be
// positive, Estimator, Seed, Workers and Exec.
func NewRootSampler(ctx context.Context, g *ugraph.Graph, ts ugraph.Terminals, cfg Config) (*Sampler, error) {
	r, err := newRootRun(ctx, g, ts, cfg)
	if err != nil {
		return nil, err
	}
	if len(ts) <= 1 {
		return singleTerminal(cfg.Samples), nil
	}
	return &Sampler{r: r, total: cfg.Samples}, nil
}

// newRootRun validates and builds the run NewRootSampler and ReachCounts
// draw on: no diagram, and one stratum, the root state at layer 0 with ts
// unseen, holding mass 1 and all cfg.Samples draws.
func newRootRun(ctx context.Context, g *ugraph.Graph, ts []int, cfg Config) (*run, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if cfg.Samples <= 0 {
		return nil, fmt.Errorf("core: root sampler needs a positive sample count, got %d", cfg.Samples)
	}
	r := &run{
		cfg: Config{
			Samples:   cfg.Samples,
			Estimator: cfg.Estimator,
			Seed:      cfg.Seed,
			Workers:   cfg.Workers,
			Exec:      cfg.Exec,
		},
		g:           g,
		k:           len(ts),
		ord:         naturalOrder(g.M()),
		workers:     sampling.ClampWorkers(cfg.Workers, 0),
		sampledMass: xfloat.One,
	}
	r.res.SamplesRequested = cfg.Samples
	r.res.Strata = 1
	st := &stratumState{
		ordinal: 1,
		unseen:  make([]int32, len(ts)),
		arena:   &stateArena{},
		snaps:   []snapshot{{p: xfloat.One}},
		mass:    xfloat.One,
		weight:  1,
		cum:     []float64{1},
		acc:     1,
		draws:   cfg.Samples,
	}
	for i, t := range ts {
		st.unseen[i] = int32(t)
	}
	st.arena.push(&frontier.State{}, 0)
	if cfg.Estimator == estimator.HorvitzThompson {
		st.seen = make(map[uint64]bool, st.draws)
	}
	r.strata = []*stratumState{st}
	return r, nil
}

// singleTerminal is the sampler of a query with fewer than two terminals:
// trivially connected, exact, with nothing to draw.
func singleTerminal(samples int) *Sampler {
	return &Sampler{fixed: &Result{
		Estimate: 1, Lower: 1, Upper: 1,
		LowerX: xfloat.One, EstimateX: xfloat.One, Exact: true,
		SamplesRequested: samples,
	}}
}

// naturalOrder returns the edge order 0, 1, …, m−1.
func naturalOrder(m int) []int {
	ord := make([]int, m)
	for i := range ord {
		ord[i] = i
	}
	return ord
}

// Scheduled returns the total draw budget the construction allocated.
func (s *Sampler) Scheduled() int { return s.total }

// Remaining returns the draws still outstanding. A poisoned sampler
// reports zero so callers stop scheduling it.
func (s *Sampler) Remaining() int {
	if s.fixed != nil || s.err != nil {
		return 0
	}
	return s.total - s.r.res.SamplesUsed
}

// Resume advances the schedule by up to k draws and returns the number
// actually drawn (less than k only when the schedule ran dry or ctx was
// cancelled). Draw results fold in schedule order regardless of how Resume
// calls split the budget, so any split sequence is bit-identical to any
// other. On error the sampler is poisoned: the partial fold is unusable and
// every later call returns the same error.
func (s *Sampler) Resume(ctx context.Context, k int) (int, error) {
	if s.err != nil {
		return 0, s.err
	}
	if s.fixed != nil || k <= 0 {
		return 0, ctx.Err()
	}
	tr := telemetry.FromContext(ctx)
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	taken := 0
	for s.cur < len(s.r.strata) && taken < k {
		st := s.r.strata[s.cur]
		take := min(st.draws-st.drawn, k-taken)
		if err := s.r.drawStratum(ctx, st, take); err != nil {
			s.err = err
			break
		}
		taken += take
		s.r.res.SamplesUsed += take
		if st.drawn == st.draws {
			s.r.finishStratum(st)
			s.cur++
		}
	}
	if tr != nil {
		tr.Add(telemetry.PhaseSample, time.Since(t0))
		if taken > 0 {
			tr.Annotate(telemetry.AnnotSamplesDrawn, int64(taken))
		}
	}
	return taken, s.err
}

// pick chooses a snapshot with probability proportional to its mass
// within the stratum, from one variate turned into a float exactly as
// rand.Float64 does.
func (st *stratumState) pick(rng *pcg) int {
	u := float64(rng.next()<<11>>11) / (1 << 53) * st.acc
	i := sort.SearchFloat64s(st.cum, u)
	if i >= len(st.snaps) {
		i = len(st.snaps) - 1
	}
	return i
}

// drawStratum advances one stratum by take draws (take ≤ its outstanding
// budget). The draws [drawn, drawn+take) span chunks [c0, c1), the first
// and last possibly in part; the chunks run across the configured workers
// and fold in chunk order, so any split of a stratum into calls folds like
// one whole call. If ctx stops the window early, the per-chunk results are
// discarded unfolded.
func (r *run) drawStratum(ctx context.Context, st *stratumState, take int) error {
	lo, hi := st.drawn, st.drawn+take
	c0, c1 := lo/stratumChunk, numChunks(hi)
	hits := make([]int, c1-c0)
	drawn := make([][]htDraw, c1-c0)
	err := r.forChunkRange(ctx, st, c0, c1, func(comp *completer, chunk int) {
		from := max(lo, chunk*stratumChunk)
		to := min(hi, (chunk+1)*stratumChunk)
		hits[chunk-c0], drawn[chunk-c0] = r.drawSegment(st, comp, chunk, from-chunk*stratumChunk, to-from)
	})
	if err != nil {
		return err
	}
	// HT over the stratum's conditional world distribution: each world w
	// has conditional probability q_w = p_node·pr_completion / P_l.
	// Deduplication (across nodes too, via the mixed fingerprint) and the
	// xfloat accumulation fold in (chunk, draw) order. π uses the stratum's
	// total scheduled draws: the estimator is defined by the schedule, not
	// by how far resumption has advanced through it.
	for i, h := range hits {
		st.conn += h
		for _, d := range drawn[i] {
			if st.seen[d.fp] {
				continue
			}
			st.seen[d.fp] = true
			st.ht.Add(d.q, true, st.draws)
		}
	}
	st.drawn = hi
	return ctx.Err()
}

// drawSegment makes draws [off, off+n) of one chunk with comp. It re-derives
// the chunk's stream and skips the off draws before the segment, each of
// which consumed exactly 1 + (M − layer) variates. Monte Carlo returns the
// connected count, Horvitz–Thompson the connected draws in draw order.
func (r *run) drawSegment(st *stratumState, comp *completer, chunk, off, n int) (hits int, out []htDraw) {
	rng := r.chunkRNG(st.layer, st.ordinal, chunk)
	rng.jump(uint64(off) * uint64(1+len(comp.edges.coins)-st.layer))
	for i := 0; i < n; i++ {
		idx := st.pick(&rng)
		sp := &st.snaps[idx]
		s := st.arena.view(sp.idx)
		if r.cfg.Estimator == estimator.MonteCarlo {
			if comp.drawMC(&s, &rng) {
				hits++
			}
			continue
		}
		if ok, pr, fp := comp.drawHT(&s, &rng); ok {
			out = append(out, htDraw{fp: mixNodeFP(fp, idx), q: sp.p.Mul(pr).Div(st.mass)})
		}
	}
	return hits, out
}

// finishStratum folds a completed stratum's contribution into the run —
// mass·hit·weight, added in stratum order — and drops the stratum's
// snapshots.
func (r *run) finishStratum(st *stratumState) {
	hit := 0.0
	switch r.cfg.Estimator {
	case estimator.MonteCarlo:
		hit = float64(st.conn) / float64(st.draws)
	case estimator.HorvitzThompson:
		hit = st.ht.Estimate()
	}
	r.estSampled = r.estSampled.Add(st.mass.MulFloat64(hit * st.weight))
	st.arena, st.snaps, st.front, st.cum, st.seen = nil, nil, nil, nil, nil
}

// Result assembles the answer for the draws made so far. With the schedule
// exhausted it is the full solve, bit-identical however Resume calls split
// it; an early-stopped sampler instead reports the anytime estimate
// (partial strata contribute their partial hit rate, untouched strata
// their midpoint) with the variance at the achieved draw count.
func (s *Sampler) Result() (Result, error) {
	if s.err != nil {
		return Result{}, s.err
	}
	if s.fixed != nil {
		return *s.fixed, nil
	}
	r := s.r
	if s.cur >= len(r.strata) {
		return r.finalize()
	}
	saved := r.estSampled
	r.estSampled = s.anytimeEstSampled()
	res, err := r.finalize()
	r.estSampled = saved
	if err != nil {
		return res, err
	}
	pc := clamp01(res.Lower)
	pd := clamp01(r.pd.Float64())
	if pc+pd > 1 {
		pd = 1 - pc
	}
	res.Variance = estimator.StratifiedMCVariance(res.Estimate, pc, pd, max(r.res.SamplesUsed, 1))
	return res, nil
}

// anytimeEstSampled extends the completed-strata fold with the current
// partial information: part-drawn strata contribute their running hit rate,
// untouched strata the midpoint of their (wholly unknown) mass.
func (s *Sampler) anytimeEstSampled() xfloat.F {
	est := s.r.estSampled
	for _, st := range s.r.strata[s.cur:] {
		if st.drawn > 0 {
			hit := 0.0
			switch s.r.cfg.Estimator {
			case estimator.MonteCarlo:
				hit = float64(st.conn) / float64(st.drawn)
			case estimator.HorvitzThompson:
				hit = st.ht.Estimate()
			}
			est = est.Add(st.mass.MulFloat64(hit * st.weight))
		} else {
			est = est.Add(st.mass.MulFloat64(0.5))
		}
	}
	return est
}

// Anytime returns the current confidence interval, point estimate, and draw
// count. The interval is a 3σ band around the anytime estimate, widened by
// half the still-untouched stratum mass, clamped to the proven bounds, and
// intersected with every previous interval — so across calls the lower
// bound never decreases and the upper never increases. Everything is
// derived from deterministic fold state: two runs that have drawn the same
// schedule prefix report the same interval, which keeps allocation
// decisions built on it deterministic too.
func (s *Sampler) Anytime() (lo, hi, est float64, drawn int) {
	if s.fixed != nil {
		return s.fixed.Lower, s.fixed.Upper, s.fixed.Estimate, 0
	}
	r := s.r
	pcF := r.pc.Clamp01().Float64()
	upF := r.pc.Add(r.sampledMass).Clamp01().Float64()
	if !s.hasIv {
		s.lo, s.hi = pcF, upF
		s.hasIv = true
	}
	drawn = r.res.SamplesUsed
	est = r.pc.Add(s.anytimeEstSampled()).Clamp01().Float64()
	est = math.Min(math.Max(est, pcF), upF)
	if r.res.Strata == 0 {
		s.lo, s.hi = est, est
		return s.lo, s.hi, est, drawn
	}
	// Mass no draw has touched yet: scheduled-but-unstarted strata plus any
	// mass the schedule will never sample (skipped or zero-allocation
	// strata, which are not recorded).
	touched := 0.0
	for _, st := range r.strata[:s.cur] {
		touched += st.mass.Float64()
	}
	for _, st := range r.strata[s.cur:] {
		if st.drawn > 0 {
			touched += st.mass.Float64()
		}
	}
	unknown := math.Max(0, r.sampledMass.Float64()-touched)
	pd := clamp01(r.pd.Float64())
	if pcF+pd > 1 {
		pd = 1 - pcF
	}
	sigma := math.Sqrt(estimator.StratifiedMCVariance(est, pcF, pd, max(drawn, 1)))
	half := 3*sigma + 0.5*unknown
	clo := math.Max(est-half, pcF)
	chi := math.Min(est+half, upF)
	// Intersect with the running interval, order-preservingly: even if a
	// later confidence interval drifts outside the running one, the bounds
	// stay monotone and lo ≤ hi.
	s.hi = math.Min(s.hi, math.Max(chi, s.lo))
	s.lo = math.Max(s.lo, math.Min(clo, s.hi))
	return s.lo, s.hi, est, drawn
}
