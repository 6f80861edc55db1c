package netrel

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"netrel/internal/batch"
	"netrel/internal/preprocess"
	"netrel/internal/telemetry"
	"netrel/internal/ugraph"
	"netrel/internal/xfloat"
)

// DefaultCacheCapacity is the number of solved subproblem results a new
// Session retains (see Session's cache discussion).
const DefaultCacheCapacity = 4096

// Session caches per-graph preprocessing across reliability queries. The
// extension technique's 2-edge-connected-component index depends only on
// topology, so the paper precomputes it once per graph ("we precompute them
// as an index", Section 5); a Session does the same, which matters on large
// graphs where index construction costs close to a full sampling pass.
//
// Beyond the index, a Session keeps an LRU cache of solved subproblem
// results keyed by (canonical subproblem signature, options fingerprint).
// Because each subproblem's RNG seed derives from its signature, a cached
// result is bit-identical to a fresh solve, so repeat queries — and the
// shared interior subproblems of BatchReliability workloads — skip straight
// to recombination. CacheStats reports effectiveness; SetCacheCapacity
// resizes or disables the cache.
//
// Execution rides an Engine: the shared worker pool runs the session's
// chunked work and admission control bounds concurrent requests. A new
// session uses DefaultEngine (permissive: pooled execution, unlimited
// admission); SetEngine attaches a bounded engine — typically shared with
// other sessions via a Registry — or nil for the standalone
// spawn-goroutines-per-call mode. The engine changes only scheduling,
// never results.
//
// The Session shares the Graph; the graph must not be modified directly
// while the session is in use — dynamic workloads evolve it through
// Mutate, which installs a fresh immutable snapshot (in-flight queries
// finish on the snapshot they started with), or probe alternatives with
// WhatIf, which answers against an ephemeral delta without changing the
// session at all. Sessions are safe for concurrent queries (each snapshot's
// index is built once and read-only afterwards, and the cache is
// internally locked).
type Session struct {
	// state is the current graph snapshot plus its (lazily built,
	// releasable) 2ECC index. Queries load it once and run entirely on
	// that snapshot; Mutate swaps in a successor under mutMu.
	state atomic.Pointer[graphState]
	cache *batch.Cache
	eng   *Engine

	mutMu     sync.Mutex
	idxBuilds atomic.Uint64
	mutations atomic.Uint64
	// cacheInvalidated counts cache entries dropped by Mutate's
	// cover-based invalidation over the session's lifetime.
	cacheInvalidated atomic.Uint64

	// Batch planner counters (see PlanStats).
	planBatches atomic.Uint64
	planQueries atomic.Uint64
	planPlanned atomic.Uint64
	planUnique  atomic.Uint64
	planTotal   atomic.Uint64
}

// graphState is one immutable graph snapshot a session (or an ephemeral
// what-if) queries: the graph, its lazily built 2ECC index, and the
// cover-tagging identity of results solved on it.
type graphState struct {
	g *Graph
	// covGen is the cover generation cached results on this state are
	// tagged with; Mutate bumps it on topology changes so covers tagged
	// against a superseded index can be recognized and dropped.
	covGen uint64
	// durable marks states whose cover tags outlive the request: the
	// session's own snapshots, and probability-only what-if states (their
	// topology — hence their component structure — is the session's).
	// Results solved on non-durable states are cached untagged and
	// reclaimed at the next mutation.
	durable bool

	// idx is nil until the first query on this state, and nil again after
	// ReleaseMemory. idxMu serializes builds; readers go through the
	// pointer without locking. In-flight queries hold their own *Index
	// reference, so releasing never invalidates a running query.
	idx   atomic.Pointer[preprocess.Index]
	idxMu sync.Mutex
}

// coverScope is the cover tag half-computed for a plan: the generation to
// tag with, and whether tagging applies at all (durable state, spec on the
// base graph rather than a conditioned rewrite).
type coverScope struct {
	gen uint64
	ok  bool
}

// coverScope returns the tag scope for a resolved spec on this state.
// Conditioned specs decompose a rewritten graph whose components are not
// the index's, so their results are cached untagged.
func (st *graphState) coverScope(rs *resolvedSpec) coverScope {
	if rs.conditioned || !st.durable {
		return coverScope{}
	}
	return coverScope{gen: st.covGen, ok: true}
}

// NewSession builds the topology index for g eagerly and returns a query
// session with a result cache of DefaultCacheCapacity subproblems, backed
// by DefaultEngine.
func NewSession(g *Graph) *Session {
	s := newLazySession(g, DefaultEngine())
	s.stateIndex(s.state.Load()) // eager, as documented
	return s
}

// newLazySession defers index construction to the first query — what a
// Registry wants for graphs registered but not yet queried.
func newLazySession(g *Graph, eng *Engine) *Session {
	s := &Session{
		cache: batch.NewCache(DefaultCacheCapacity),
		eng:   eng,
	}
	s.state.Store(&graphState{g: g, durable: true})
	return s
}

// stateIndex returns a state's 2ECC index, building it on first use — and
// again after a ReleaseMemory, which is why this is a double-checked build
// under a mutex rather than a sync.Once. Whichever query arrives first
// constructs the index for everyone; concurrent queries block until it is
// ready. A rebuild is bit-identical to the original (BuildIndex is a
// deterministic function of topology), so release/rebuild cycles never
// change results.
func (s *Session) stateIndex(st *graphState) *preprocess.Index {
	if idx := st.idx.Load(); idx != nil {
		return idx
	}
	st.idxMu.Lock()
	defer st.idxMu.Unlock()
	if idx := st.idx.Load(); idx != nil {
		return idx
	}
	idx := preprocess.BuildIndex(st.g.internal())
	s.idxBuilds.Add(1)
	st.idx.Store(idx)
	return idx
}

// stateIndexContext is the query-path entry to the lazy index: it refuses
// to start (or join) the build under an already-cancelled ctx, so a
// cancelled first query on a lazily-registered graph releases its
// admission slot without paying for index construction. The check is
// before the build, not inside it — the build itself must stay
// cancellation-free, because it is shared: a co-waiter whose ctx dies
// mid-build merely returns early on its next ctx check, while the
// builder's completed index remains usable by every later query.
func (s *Session) stateIndexContext(ctx context.Context, st *graphState) (*preprocess.Index, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.stateIndex(st), nil
}

// IndexBuilt reports whether the 2ECC index is currently materialized
// (lazily created sessions build it on the first query; ReleaseMemory
// drops it again until the next query).
func (s *Session) IndexBuilt() bool { return s.state.Load().idx.Load() != nil }

// IndexBuilds counts 2ECC index constructions over the session's lifetime
// — 0 or 1 normally, higher when memory-pressure releases forced lazy
// rebuilds.
func (s *Session) IndexBuilds() uint64 { return s.idxBuilds.Load() }

// RetainedBytes reports the heap this session retains beyond the graph
// itself: the 2ECC index (when materialized) plus the result cache's
// entries. This is what a Registry's MaxBytes pressure accounting sums.
func (s *Session) RetainedBytes() int64 {
	return s.state.Load().idx.Load().RetainedBytes() + s.cache.Bytes()
}

// ReleaseMemory drops the session's rebuildable memory — the 2ECC index
// and every cached subproblem result — keeping the session itself
// registered and queryable. The next query lazily rebuilds the index and
// re-solves what it needs; both are bit-identical to the pre-release
// state (the index is a deterministic function of topology, and cached
// results' seeds derive from their signatures). Safe concurrently with
// queries: in-flight queries keep their own index reference.
func (s *Session) ReleaseMemory() {
	s.state.Load().idx.Store(nil)
	s.cache.Clear()
}

// Graph returns the underlying graph — the current snapshot when the
// session has been mutated.
func (s *Session) Graph() *Graph { return s.state.Load().g }

// SetEngine attaches the execution engine used by this session's queries:
// an engine from NewEngine (typically shared across sessions), or nil for
// standalone per-call goroutine spawning with no admission control. Not
// safe to call concurrently with queries.
func (s *Session) SetEngine(e *Engine) { s.eng = e }

// Engine returns the session's engine (nil in standalone mode).
func (s *Session) Engine() *Engine { return s.eng }

// SetCacheCapacity replaces the session's result cache with a fresh one
// holding up to n subproblem results; n ≤ 0 disables caching. Existing
// cached results and statistics are discarded. Not safe to call
// concurrently with queries.
func (s *Session) SetCacheCapacity(n int) {
	s.cache = batch.NewCache(n)
}

// CacheStats reports the session result cache's hit/miss counters and
// occupancy (zero values when caching is disabled).
func (s *Session) CacheStats() CacheStats {
	st := s.cache.Stats()
	return CacheStats{Hits: st.Hits, Misses: st.Misses, Entries: st.Entries, Capacity: st.Capacity}
}

// PlanStats reports the batch planner's dedup effectiveness: how many
// queries arrived in batches, how many distinct terminal sets were actually
// planned (duplicates share one plan), and how far subproblem-level dedup
// compressed the solve schedule on top of that. Counters cover every batch
// call — BatchReliability, WhatIfBatch and TopKReliable — whose planning
// phase completed, whether or not the solve phase later succeeded. Single
// queries (Solve, Reliability, Exact, WhatIf and their variants) and
// MaximizeReliability's candidate rounds are not counted, although they run
// through the same planner.
type PlanStats struct {
	// Batches counts batch calls that reached planning; Queries the
	// queries they contained.
	Batches, Queries uint64
	// Planned counts distinct terminal sets planned — Queries − Planned
	// queries were answered by another query's plan.
	Planned uint64
	// UniqueSubproblems and TotalSubproblems count the post-dedup solve
	// schedule versus the job references across all queries (what a
	// sequential per-query runner would solve).
	UniqueSubproblems, TotalSubproblems uint64
}

// PlanStats reports batch planning and dedup counters for this session.
func (s *Session) PlanStats() PlanStats {
	return PlanStats{
		Batches:           s.planBatches.Load(),
		Queries:           s.planQueries.Load(),
		Planned:           s.planPlanned.Load(),
		UniqueSubproblems: s.planUnique.Load(),
		TotalSubproblems:  s.planTotal.Load(),
	}
}

// CacheStats reports session result-cache effectiveness.
type CacheStats struct {
	// Hits and Misses count subproblem lookups since the session (or the
	// last SetCacheCapacity call).
	Hits, Misses uint64
	// Entries is the number of cached subproblem results; Capacity the LRU
	// limit.
	Entries, Capacity int
}

// Reliability runs the full pipeline like the package-level Reliability,
// reusing the session's precomputed index and result cache.
func (s *Session) Reliability(terminals []int, opts ...Option) (*Result, error) {
	return s.ReliabilityContext(context.Background(), terminals, opts...)
}

// ReliabilityContext is Reliability with cancellation and admission: the
// request first acquires an engine slot at its planning cost (waiting in
// the bounded admission queue if the engine is saturated, failing fast
// with ErrQueueFull or ErrOverCost when it cannot), is repriced at its
// solve cost once planned (see EngineConfig.MaxCost), then solves under
// ctx — cancellation and deadlines propagate to chunk granularity, and a
// cancelled request frees its slot promptly. ctx never affects the
// computed value.
func (s *Session) ReliabilityContext(ctx context.Context, terminals []int, opts ...Option) (*Result, error) {
	return s.SolveContext(ctx, QuerySpec{Terminals: terminals}, opts...)
}

// Exact runs the exact pipeline like the package-level Exact, reusing the
// session's precomputed index and result cache.
func (s *Session) Exact(terminals []int, opts ...Option) (*Result, error) {
	return s.ExactContext(context.Background(), terminals, opts...)
}

// ExactContext is Exact with cancellation and admission (see
// ReliabilityContext).
func (s *Session) ExactContext(ctx context.Context, terminals []int, opts ...Option) (*Result, error) {
	return s.SolveExactContext(ctx, QuerySpec{Terminals: terminals}, opts...)
}

// Solve answers one mode-polymorphic query — terminal-set or conditional —
// through the full pipeline, reusing the session's index (terminal-set
// specs) and result cache (all specs). Conditional specs apply their
// evidence as a canonical graph rewrite before decomposition, so their
// subproblems carry canonical signatures of the conditioned inputs and
// share the cache, the batch dedup, and the signature-derived seeds exactly
// like terminal-set subproblems: a conditional query returns bit-identical
// results alone, in a batch, and for any worker count. ModeTopK specs are
// rejected with ErrTopKNotSingle — a ranking comes from TopKReliable.
func (s *Session) Solve(spec QuerySpec, opts ...Option) (*Result, error) {
	return s.SolveContext(context.Background(), spec, opts...)
}

// SolveContext is Solve with cancellation and admission (see
// ReliabilityContext).
func (s *Session) SolveContext(ctx context.Context, spec QuerySpec, opts ...Option) (*Result, error) {
	return first(s.query(ctx, s.state.Load(), []Query{spec}, opts, solveCall{}))
}

// SolveExact is Solve with sampling disabled: the S2BDD must resolve every
// subproblem of the (possibly conditioned) decomposition exactly within the
// configured width or the call fails with ErrNotExact.
func (s *Session) SolveExact(spec QuerySpec, opts ...Option) (*Result, error) {
	return s.SolveExactContext(context.Background(), spec, opts...)
}

// SolveExactContext is SolveExact with cancellation and admission (see
// ReliabilityContext).
func (s *Session) SolveExactContext(ctx context.Context, spec QuerySpec, opts ...Option) (*Result, error) {
	return first(s.query(ctx, s.state.Load(), []Query{spec}, opts, solveCall{exactOnly: true}))
}

// queryPlan is one query after preprocessing: the jobs still to solve, the
// exactly-factored bridge product, and the partially-filled result. A
// query with disconnected terminals has factor 0 and no jobs, so the
// general combine answers it. One queryPlan may be shared by every query
// of a call with the same spec — sharers clone out (see cloneOut) before
// combining, and planDur records the plan's own wall-clock so a query's
// Duration never includes other queries' planning.
type queryPlan struct {
	out     *Result
	factor  xfloat.F
	jobs    []batch.Job
	planDur time.Duration
}

// cloneOut returns an independent copy of the plan's partial result, so
// queries fanned out from one deduplicated plan never alias Result or
// PreprocessStats storage.
func (p *queryPlan) cloneOut() *Result {
	out := *p.out
	if p.out.Preprocess != nil {
		pp := *p.out.Preprocess
		out.Preprocess = &pp
	}
	return &out
}

// planTerminals runs preprocessing for one canonical (graph, terminal set)
// pair — the base graph for terminal-set specs, the conditioned rewrite for
// conditional ones — producing the decomposed subproblems (with canonical
// signatures) but not solving them. Plan contents depend only on (graph,
// terminal set, options), never on which query asked or how it was
// scheduled. Cancellation is checked after the preprocess pass (the pass
// itself is cheap relative to solving); callers check on entry.
func planTerminals(ctx context.Context, g *ugraph.Graph, ts ugraph.Terminals, o options, idx *preprocess.Index, cov coverScope) (*queryPlan, error) {
	tr := telemetry.FromContext(ctx)
	start := time.Now()
	p := &queryPlan{
		out:    &Result{SamplesRequested: o.samples},
		factor: xfloat.One,
	}

	if o.noExtension {
		// Extension disabled: the single job is the whole graph, which no
		// component covers — its cached result stays untagged and is
		// reclaimed at the next mutation.
		p.jobs = append(p.jobs, batch.Job{G: g, Ts: ts, Sig: preprocess.Sign(g, ts)})
		p.planDur = time.Since(start)
		tr.Add(telemetry.PhasePlan, p.planDur)
		return p, nil
	}

	prepStart := time.Now()
	prep, err := preprocess.RunContext(ctx, g, ts, idx)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p.out.Preprocess = &PreprocessStats{
		OriginalEdges:    prep.OriginalEdges,
		MaxSubgraphEdges: prep.MaxSubgraphEdges,
		ReducedRatio:     prep.ReducedRatio,
		Bridges:          prep.Bridges,
		Duration:         time.Since(prepStart),
	}
	if prep.Disconnected {
		p.factor = xfloat.Zero
	} else {
		p.factor = prep.PB
	}
	for _, sub := range prep.Subproblems {
		j := batch.Job{G: sub.G, Ts: sub.Terminals, Sig: sub.Sig}
		if cov.ok {
			j.Cover = batch.Cover{Gen: cov.gen, Comp: sub.Comp, Valid: true}
		}
		p.jobs = append(p.jobs, j)
	}
	p.planDur = time.Since(start)
	tr.Add(telemetry.PhasePlan, p.planDur)
	return p, nil
}
