package netrel

import (
	"context"
	"fmt"
	"time"

	"netrel/internal/batch"
	"netrel/internal/core"
	"netrel/internal/preprocess"
	"netrel/internal/sampling"
	"netrel/internal/telemetry"
)

// Query is one reliability query in a batch. It is the QuerySpec shape
// itself: a zero-Mode Query that sets only Terminals keeps its historical
// terminal-set meaning, and conditional queries additionally set Mode and
// Evidence. ModeTopK specs are rejected — a top-k query yields a ranking,
// not one Result — so they are served by Session.TopKReliable, which itself
// expands into a batch of these.
type Query = QuerySpec

// BatchReliability answers many reliability queries over the session's
// graph in one pass. Queries may mix terminal-set and conditional modes
// freely; they are first deduplicated by canonical spec signature (mode,
// terminal set, evidence) — every distinct spec is planned exactly once,
// chunk-parallel on the engine pool under the WithWorkers budget, and
// the plan fans out to all queries that share it. Terminal-set specs plan
// against the shared 2ECC index; conditional specs plan their conditioned
// graph from scratch (the base graph's index does not describe it). The
// decomposed subproblems of the distinct plans are then deduplicated by
// canonical signature, solved exactly once each — largest-first across the
// WithWorkers budget, consulting the session result cache — and every
// query's answer is recombined from the shared solutions.
//
// Results are bit-identical to issuing each query alone through
// Session.Solve with the same options: subproblem RNG seeds derive from
// canonical signatures, never from a query's position in the batch, so
// neither level of deduplication (nor any worker count) is visible in the
// output. Queries that share no structure cost the same as sequential
// calls; workloads whose terminal sets repeat or cross the same 2ECC chains
// (reliability maximization, s-t comparison sweeps, top-k candidate scans)
// skip the bulk of both planning and solving — including across modes,
// whenever a conditioned subproblem happens to coincide with an
// unconditioned one. PlanStats reports the dedup's effectiveness.
//
// The returned slice has one Result per query, in query order (an empty
// batch yields an empty, non-nil slice). Each Result's Duration is that
// query's own plan-plus-solve wall-clock: its (possibly shared) planning
// pass plus the batch solve phase it participated in — never other
// queries' planning, and for queries answered by preprocessing alone, no
// solve phase at all. Any invalid query (empty or out-of-range terminals)
// fails the whole batch with an error naming the offending query.
func (s *Session) BatchReliability(queries []Query, opts ...Option) ([]*Result, error) {
	return s.BatchReliabilityContext(context.Background(), queries, opts...)
}

// BatchReliabilityContext is BatchReliability with cancellation and
// admission. The batch is one admission unit, admitted in two phases like
// every S2BDD request (see EngineConfig.MaxCost): at its planning cost
// before any planning, then at its post-dedup solve cost directly after
// it — unique subproblems capped at the distinct-spec count, so N
// duplicates of one query cost what the query costs alone and
// heavily-shared batches do not trip MaxCost limits sized for unshared
// traffic. Cancellation propagates into the parallel planning phase and
// every subproblem's chunk schedule; a cancelled batch caches nothing, so
// retrying yields results bit-identical to an uninterrupted run.
func (s *Session) BatchReliabilityContext(ctx context.Context, queries []Query, opts ...Option) ([]*Result, error) {
	return s.query(ctx, s.state.Load(), queries, opts, solveCall{batch: true})
}

// query is the one entry point of every S2BDD request: it resolves the
// queries against the graph state they run on — the session's current
// snapshot, or an ephemeral what-if state — and solves them as one call.
// Single-result methods pass one query and take its result (see first).
// The whole call runs on the one state loaded by the caller, so a
// concurrent Mutate never splits it across snapshots.
//
// Every query is resolved up front: validation plus canonicalization is
// cheap (conditioning is one O(|E|) graph rewrite), it is what plan-level
// dedup keys on, and it fails invalid queries before the call occupies an
// admission slot. Conditional specs' evidence rewrites are recorded as one
// aggregate PhaseCondition span (terminal-set resolution is a validation
// pass, too cheap to be a phase).
func (s *Session) query(ctx context.Context, st *graphState, queries []Query, opts []Option, c solveCall) ([]*Result, error) {
	o, err := buildOptions(opts)
	if err != nil {
		return nil, err
	}
	if len(queries) == 0 {
		// "One Result per query, in query order" — for zero queries that is
		// an empty non-nil slice; nil would read as "no answer" to callers
		// that distinguish it from a (vacuously) answered batch.
		return []*Result{}, nil
	}
	ctx, tr := ensureTrace(ctx, o)
	var start time.Time
	if tr != nil {
		start = time.Now()
	}
	specs := make([]*resolvedSpec, len(queries))
	conditioned := false
	for i, q := range queries {
		rs, err := resolveSpec(st.g, q)
		if err != nil {
			return nil, c.blame(i, err)
		}
		specs[i] = rs
		conditioned = conditioned || rs.conditioned
	}
	if tr != nil && conditioned {
		tr.Add(telemetry.PhaseCondition, time.Since(start))
	}
	return s.solve(ctx, st, specs, o, c)
}

// first returns the one result of a one-query call.
func first(out []*Result, err error) (*Result, error) {
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// solveCall says how one pass through solve runs and is accounted.
type solveCall struct {
	// exactOnly disables sampling: a subproblem the S2BDD cannot resolve
	// within the width limit fails the call with ErrNotExact.
	exactOnly bool
	// batch marks calls from the batch entry points (BatchReliability,
	// WhatIfBatch, TopKReliable): PlanStats counts them, and their errors
	// name the offending query.
	batch bool
}

// blame attributes a non-nil err to query i when the call is a batch.
func (c solveCall) blame(i int, err error) error {
	if err == nil || !c.batch {
		return err
	}
	return fmt.Errorf("netrel: batch query %d: %w", i, err)
}

// solve is the pipeline body behind every S2BDD entry point: dedup the
// resolved specs by plan signature, admit at the planning cost, plan each
// distinct spec once, dedup the decomposed subproblems across the plans,
// reprice at the solve cost, solve each unique subproblem once against the
// session cache, and recombine every query's answer from the shared
// solutions. The call runs entirely on st, whose index and cover tags its
// specs plan with.
func (s *Session) solve(ctx context.Context, st *graphState, specs []*resolvedSpec, o options, c solveCall) ([]*Result, error) {
	tr := telemetry.FromContext(ctx)
	sigs := make([]preprocess.Signature, len(specs))
	needIdx := false
	for i, rs := range specs {
		sigs[i] = rs.planSig
		needIdx = needIdx || !rs.conditioned
	}
	dd := batch.DedupSpecs(sigs)

	// Admission phase 1: the planning cost, before any planning.
	admittedCost := planCost(dd.Distinct())
	release, err := s.eng.admit(ctx, admittedCost)
	if err != nil {
		return nil, err
	}
	defer release()
	// The shared 2ECC index describes the base graph only, so it is built
	// (or fetched) only when some spec plans on the base graph through it.
	var idx *preprocess.Index
	if needIdx && !o.noExtension {
		done := tr.Span(telemetry.PhaseIndex)
		idx, err = s.stateIndexContext(ctx, st)
		done()
		if err != nil {
			return nil, err
		}
	} else if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Plan each distinct spec exactly once, chunk-parallel on engine-pool
	// slots. Plans land in per-slot storage; their contents depend only on
	// the resolved spec, so the worker count never changes them, and errors
	// are attributed to the first query using the slot.
	plans := make([]*queryPlan, dd.Distinct())
	if err := sampling.ForEachCtx(ctx, s.eng.exec(), dd.Distinct(), o.workers, func(d int) error {
		rs := specs[dd.First[d]]
		p, err := planTerminals(ctx, rs.g, rs.ts, o, rs.planIndex(idx), st.coverScope(rs))
		plans[d] = p
		return c.blame(dd.First[d], err)
	}); err != nil {
		return nil, err
	}

	// Deduplicate subproblems across the distinct plans. plan.Unique is
	// ordered largest-first, so solveJobs starts the dominant subproblems
	// before the worker budget fills with small ones.
	jobLists := make([][]batch.Job, len(plans))
	for d, p := range plans {
		jobLists[d] = p.jobs
	}
	plan := batch.Build(jobLists)

	totalJobs := 0
	for _, d := range dd.Slot {
		totalJobs += len(plan.Refs[d])
	}
	if c.batch {
		s.planBatches.Add(1)
		s.planQueries.Add(uint64(len(specs)))
		s.planPlanned.Add(uint64(dd.Distinct()))
		s.planUnique.Add(uint64(len(plan.Unique)))
		s.planTotal.Add(uint64(totalJobs))
	}
	tr.Annotate(telemetry.AnnotQueriesPlanned, int64(dd.Distinct()))
	tr.Annotate(telemetry.AnnotQueriesDeduped, int64(dd.Deduped()))
	tr.Annotate(telemetry.AnnotSubproblems, int64(totalJobs))
	tr.Annotate(telemetry.AnnotSubproblemsDeduped, int64(totalJobs-len(plan.Unique)))
	// Admission phase 2: reprice at the post-dedup solve cost now that the
	// unique-subproblem count is known. The slot is kept either way.
	if err := s.eng.reprice(ctx, admittedCost, solveCost(o, len(plan.Unique), dd.Distinct(), c.exactOnly)); err != nil {
		return nil, err
	}

	// Each unique subproblem's fan-in — how many plans its refinement
	// tightens — weights its bound gap in adaptive rounds, which stream
	// per-query interval snapshots to the progress sink.
	fanin := make([]int, len(plan.Unique))
	for _, refs := range plan.Refs {
		for _, u := range refs {
			fanin[u]++
		}
	}
	var report func(int, bool, []jobBounds)
	if o.progress != nil && !c.exactOnly {
		report = func(round int, final bool, bounds []jobBounds) {
			for i := range specs {
				p := plans[dd.Slot[i]]
				factor := p.factor.Clamp01().Float64()
				lo, hi, est, drawn := combineBounds(factor, bounds, plan.Refs[dd.Slot[i]])
				o.progress(Progress{Query: i, Round: round, Lower: lo,
					Upper: hi, Estimate: est, SamplesUsed: drawn, Done: final})
			}
		}
	}
	solveStart := time.Now()
	solved, err := solveJobs(ctx, s.eng.exec(), plan.Unique, fanin, o, c.exactOnly, s.cache, report)
	if err != nil {
		return nil, err
	}
	solveDur := time.Since(solveStart)

	// Recombine each distinct plan's product from the shared results once,
	// in the plan's own job order; combineResults writes into the plan's
	// partial result in place.
	combineDone := tr.Span(telemetry.PhaseCombine)
	for d, p := range plans {
		results := make([]core.Result, len(plan.Refs[d]))
		for j, u := range plan.Refs[d] {
			results[j] = solved[u]
		}
		combineResults(p.out, results, p.factor)
		if len(results) == 0 {
			// Answered by preprocessing alone (single terminal, disconnected
			// terminals, or every component factored out exactly): the
			// query never entered the solve phase, so it isn't billed for it.
			p.out.Duration = p.planDur
		} else {
			p.out.Duration = p.planDur + solveDur
		}
	}
	combineDone()

	// Fan the combined results out to the queries: every query — duplicates
	// included — gets its own clone, so no two Results alias storage. Under
	// WithTrace every Result carries its own copy of the call-wide phase
	// breakdown (phases are call-scoped: one shared solve served them all).
	var phases *PhaseBreakdown
	if tr != nil && o.trace {
		phases = newPhaseBreakdown(tr.Snapshot())
	}
	out := make([]*Result, len(specs))
	for i := range specs {
		out[i] = plans[dd.Slot[i]].cloneOut()
		out[i].Phases = phases.clone()
	}
	return out, nil
}
