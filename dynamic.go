// Dynamic graphs: versioned session mutation and ephemeral what-if
// queries.
//
// Mutate applies a GraphDelta to the session's graph as a new immutable
// snapshot: probability-only deltas keep the 2ECC index verbatim, topology
// deltas rebuild it, and the result cache is invalidated by cover — an
// entry survives exactly when the component it was cut from is untouched.
// Cover invalidation is memory hygiene, not correctness: cache keys are
// content signatures, so a stale entry can never be wrongly hit; what
// invalidation buys is that untouched subproblems keep their entries and
// post-mutation queries hit them.
//
// WhatIf answers "what would this query return if the graph had this
// delta" without changing the session: it builds an ephemeral graph state
// (sharing the base index for probability-only deltas, building a private
// one for topology deltas) and runs the ordinary
// pipeline on it against the shared cache. Because unchanged subproblems
// keep their signatures — and signatures derive the RNG seeds — a what-if
// result is bit-identical to evicting, re-registering the mutated graph,
// and querying cold, while only the covered subproblems are re-solved.
package netrel

import (
	"context"

	"netrel/internal/batch"
	"netrel/internal/preprocess"
	"netrel/internal/telemetry"
	"netrel/internal/ugraph"
)

// MutationStats reports what one Session.Mutate did.
type MutationStats struct {
	// Version is the graph version after the mutation.
	Version uint64
	// TopologyChanged mirrors the delta's TopologyChanged.
	TopologyChanged bool
	// IndexUpdated reports that the 2ECC index was materialized at
	// mutation time and was carried across the delta: kept for a
	// probability-only delta, rebuilt for a topology delta (when false the
	// index was unbuilt, and the next query builds it from scratch).
	IndexUpdated bool
	// InvalidatedEntries and KeptEntries count result-cache entries
	// dropped by cover invalidation versus retained for the new snapshot.
	InvalidatedEntries, KeptEntries int
}

// Mutate applies delta to the session's graph. See MutateContext.
func (s *Session) Mutate(delta GraphDelta) (*MutationStats, error) {
	return s.MutateContext(context.Background(), delta)
}

// MutateContext validates delta and installs the mutated graph as the
// session's new snapshot, carrying the 2ECC index across the delta and
// invalidating only the cache entries whose 2ECC the delta touched.
// Concurrent queries are never disturbed: in-flight queries finish on the
// snapshot they loaded, queries starting after the swap see the new
// graph, and results on the new snapshot are bit-identical to a fresh
// session over the mutated graph. Mutations are serialized with each
// other. ctx carries only the telemetry trace (reindex and invalidate
// spans); the mutation itself is not cancellable — it is cheap.
func (s *Session) MutateContext(ctx context.Context, delta GraphDelta) (*MutationStats, error) {
	s.mutMu.Lock()
	defer s.mutMu.Unlock()
	st := s.state.Load()
	d := delta.internal()
	ng, _, err := ugraph.ApplyDelta(st.g.internal(), d)
	if err != nil {
		return nil, err
	}
	tr := telemetry.FromContext(ctx)
	var upd *preprocess.IndexUpdate
	if idx := st.idx.Load(); idx != nil {
		done := tr.Span(telemetry.PhaseReindex)
		upd = idx.Update(st.g.internal(), ng, d)
		done()
	}
	oldGen := st.covGen
	newGen := oldGen
	if delta.TopologyChanged() {
		// Probability-only deltas keep the component structure, so covers
		// tagged under the old generation stay addressable; topology
		// deltas renumber components and bump the generation so covers
		// that miss this invalidation pass (in-flight queries' late Puts)
		// are recognized as stale at the next one.
		newGen++
	}
	next := &graphState{
		g:       &Graph{g: ng, version: st.g.version + 1},
		covGen:  newGen,
		durable: true,
	}
	if upd != nil {
		next.idx.Store(upd.Index)
	}
	done := tr.Span(telemetry.PhaseInvalidate)
	dropped, kept := s.cache.Invalidate(func(c batch.Cover) (batch.Cover, bool) {
		// Keep exactly the entries provably still reachable: tagged under
		// the current generation with an untouched component. Everything
		// else — untagged entries (conditioned specs, extension-disabled
		// solves, ephemeral what-if states), stale generations, touched
		// components, and all entries when the index was never built (no
		// cover map to judge by) — is reclaimed.
		if upd == nil || !c.Valid || c.Gen != oldGen || int(c.Comp) >= len(upd.CompMap) {
			return batch.Cover{}, false
		}
		nc := upd.CompMap[c.Comp]
		if nc < 0 {
			return batch.Cover{}, false
		}
		return batch.Cover{Gen: newGen, Comp: nc, Valid: true}, true
	})
	done()
	s.state.Store(next)
	s.mutations.Add(1)
	s.cacheInvalidated.Add(uint64(dropped))
	return &MutationStats{
		Version:            next.g.version,
		TopologyChanged:    delta.TopologyChanged(),
		IndexUpdated:       upd != nil,
		InvalidatedEntries: dropped,
		KeptEntries:        kept,
	}, nil
}

// GraphVersion returns the current snapshot's version (the number of
// mutations applied since the session's graph was constructed).
func (s *Session) GraphVersion() uint64 { return s.state.Load().g.Version() }

// Mutations counts Mutate calls that committed a new snapshot.
func (s *Session) Mutations() uint64 { return s.mutations.Load() }

// CacheInvalidations counts result-cache entries dropped by mutations'
// cover invalidation over the session's lifetime.
func (s *Session) CacheInvalidations() uint64 { return s.cacheInvalidated.Load() }

// WhatIf answers spec as if delta had been applied to the session's
// graph, without applying it. See WhatIfContext.
func (s *Session) WhatIf(delta GraphDelta, spec QuerySpec, opts ...Option) (*Result, error) {
	return s.WhatIfContext(context.Background(), delta, spec, opts...)
}

// WhatIfContext runs one query against an ephemeral delta of the
// session's graph. The result is bit-identical to applying the delta for
// real (Mutate, or a fresh session over the mutated graph) and querying —
// for any worker count — but the session is untouched and subproblems the
// delta does not cover are answered from the shared result cache. A
// probability-only delta shares the session's 2ECC index outright; a
// topology delta builds a private one (PhaseReindex in traces). Admission
// is two-phase, like every S2BDD request (see EngineConfig.MaxCost).
func (s *Session) WhatIfContext(ctx context.Context, delta GraphDelta, spec QuerySpec, opts ...Option) (*Result, error) {
	st, err := s.whatIfState(ctx, delta)
	if err != nil {
		return nil, err
	}
	return first(s.query(ctx, st, []Query{spec}, opts, solveCall{}))
}

// WhatIfBatch is BatchReliability against an ephemeral delta. See
// WhatIfContext and WhatIfBatchContext.
func (s *Session) WhatIfBatch(delta GraphDelta, queries []Query, opts ...Option) ([]*Result, error) {
	return s.WhatIfBatchContext(context.Background(), delta, queries, opts...)
}

// WhatIfBatchContext answers a whole batch against one ephemeral delta,
// with the batch path's spec- and subproblem-level dedup and two-phase
// admission. Results are bit-identical to BatchReliability on a session
// whose graph had the delta applied.
func (s *Session) WhatIfBatchContext(ctx context.Context, delta GraphDelta, queries []Query, opts ...Option) ([]*Result, error) {
	st, err := s.whatIfState(ctx, delta)
	if err != nil {
		return nil, err
	}
	return s.query(ctx, st, queries, opts, solveCall{batch: true})
}

// whatIfState builds the ephemeral graph state a what-if runs on. For
// probability-only deltas the component structure is the session's, so
// the state shares the base index (when built — else it is built lazily
// on the identical topology) and stays durable: its solved subproblems
// are tagged with the same covers the base graph's are, and survive in
// the shared cache. Topology deltas get a private index of the mutated
// graph and an untagged (non-durable) state — their results are cached
// for repeat what-ifs but reclaimed at the next mutation.
func (s *Session) whatIfState(ctx context.Context, delta GraphDelta) (*graphState, error) {
	base := s.state.Load()
	ng, _, err := ugraph.ApplyDelta(base.g.internal(), delta.internal())
	if err != nil {
		return nil, err
	}
	ws := &graphState{g: &Graph{g: ng, version: base.g.version + 1}}
	if !delta.TopologyChanged() {
		ws.covGen = base.covGen
		ws.durable = base.durable
		if idx := base.idx.Load(); idx != nil {
			ws.idx.Store(idx)
		}
		return ws, nil
	}
	done := telemetry.FromContext(ctx).Span(telemetry.PhaseReindex)
	ws.idx.Store(preprocess.BuildIndex(ng))
	done()
	return ws, nil
}
