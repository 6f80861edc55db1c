package main

// layerStats gathers a traced run's per-layer measurements; lines turns
// them into the perLayer metrics. Per-query slices hold one value per
// answered query, summed over its subproblems.
type layerStats struct {
	queries int

	generateMS, indexMS, indexBytes float64

	planMS, subproblems, maxSubEdges []float64

	constructMS, layers, peakWidth, nodesCreated, nodesDeleted []float64
	resolved                                                   []float64 // per subproblem: pc + pd
	sampleMS, draws, strata                                    []float64
	sampleNS, drawn, reduced, requested                        float64
	constructShare, sampleShare                                float64

	cacheHits, cacheLookups float64
	dedupSubs, batchSubs    float64
	invalidated             []float64
	writeMS                 []float64 // per single-edge write

	admissionMS []float64
	assists     float64 // pool assists over the run

	httpOverheadMS, responseBytes []float64
	invalidateMS, reindexMS       []float64
	traceOverhead                 float64
}

// addReplay records one replayed query.
func (ls *layerStats) addReplay(rp *replayed) {
	ls.planMS = append(ls.planMS, float64(rp.planNS)/1e6)
	ls.subproblems = append(ls.subproblems, float64(len(rp.prep.Subproblems)))
	ls.maxSubEdges = append(ls.maxSubEdges, float64(rp.prep.MaxSubgraphEdges))
	ls.constructMS = append(ls.constructMS, float64(rp.constructNS)/1e6)
	ls.sampleMS = append(ls.sampleMS, float64(rp.sampleNS)/1e6)
	ls.sampleNS += float64(rp.sampleNS)
	var layers, peak, created, deleted, draws, strata float64
	for _, r := range rp.subs {
		layers += float64(r.LayersProcessed)
		peak = max(peak, float64(r.PeakWidth))
		created += float64(r.NodesCreated)
		deleted += float64(r.NodesDeleted)
		draws += float64(r.SamplesUsed)
		strata += float64(r.Strata)
		ls.reduced += float64(r.SamplesReduced)
		ls.requested += float64(r.SamplesRequested)
		ls.resolved = append(ls.resolved, 1-r.UnresolvedX.Clamp01().Float64())
	}
	ls.layers = append(ls.layers, layers)
	ls.peakWidth = append(ls.peakWidth, peak)
	ls.nodesCreated = append(ls.nodesCreated, created)
	ls.nodesDeleted = append(ls.nodesDeleted, deleted)
	ls.draws = append(ls.draws, draws)
	ls.strata = append(ls.strata, strata)
	ls.drawn += draws
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func orZero(xs []float64, f func([]float64) float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return f(xs)
}

func (ls *layerStats) lines() []line {
	n := ls.queries
	q := func(p float64) func([]float64) float64 {
		return func(xs []float64) float64 { return quantile(xs, p) }
	}
	return []line{
		{"datasets.generate_ms", ls.generateMS, 1, "generator call"},
		{"preprocess.index_ms", ls.indexMS, 1, "preprocess.BuildIndex"},
		{"preprocess.index_bytes", ls.indexBytes, 1, "Index.RetainedBytes"},
		{"preprocess.plan_ms", orZero(ls.planMS, mean), len(ls.planMS), "mean per query"},
		{"preprocess.subproblems", orZero(ls.subproblems, mean), len(ls.subproblems), "mean per query"},
		{"preprocess.max_subgraph_edges", orZero(ls.maxSubEdges, mean), len(ls.maxSubEdges), "mean per query"},
		{"core.construct_ms", orZero(ls.constructMS, mean), len(ls.constructMS), "mean per query"},
		{"core.construct_share", ls.constructShare, n, "share of blocking time"},
		{"core.layers", orZero(ls.layers, mean), len(ls.layers), "mean per query"},
		{"core.peak_width", orZero(ls.peakWidth, mean), len(ls.peakWidth), "mean per query of the widest layer"},
		{"core.nodes_created", orZero(ls.nodesCreated, mean), len(ls.nodesCreated), "mean per query"},
		{"core.nodes_deleted", orZero(ls.nodesDeleted, mean), len(ls.nodesDeleted), "mean per query"},
		{"core.resolved_mass", orZero(ls.resolved, mean), len(ls.resolved), "mean per subproblem of pc + pd"},
		{"core.sample_ms", orZero(ls.sampleMS, mean), len(ls.sampleMS), "mean per query"},
		{"core.sample_share", ls.sampleShare, n, "share of blocking time"},
		{"core.draws", orZero(ls.draws, mean), len(ls.draws), "mean per query"},
		{"core.ns_per_draw", ratio(ls.sampleNS, ls.drawn), int(ls.drawn), "sampling time per draw"},
		{"core.draws_saved_frac", ratio(ls.requested-ls.reduced, ls.requested), len(ls.resolved), "1 - s'/s over subproblems"},
		{"core.strata", orZero(ls.strata, mean), len(ls.strata), "mean per query"},
		{"batch.cache_hit_ratio", ratio(ls.cacheHits, ls.cacheLookups), int(ls.cacheLookups), "subproblem lookups"},
		{"batch.subproblems_deduped_frac", ratio(ls.dedupSubs, ls.batchSubs), int(ls.batchSubs), "batch subproblem references"},
		{"batch.invalidated_per_write", orZero(ls.invalidated, mean), len(ls.invalidated), "cache entries per write"},
		{"netrel.write_p50_ms", orZero(ls.writeMS, median), len(ls.writeMS), "median per single-edge write"},
		{"engine.admission_wait_p50_ms", orZero(ls.admissionMS, median), len(ls.admissionMS), "per request"},
		{"engine.admission_wait_p99_ms", orZero(ls.admissionMS, q(0.99)), len(ls.admissionMS), "per request"},
		{"engine.pool_assists", ratio(ls.assists, float64(n)), n, "per request"},
		{"netreld.http_overhead_ms", orZero(ls.httpOverheadMS, median), len(ls.httpOverheadMS), "round trip minus duration_ms, median"},
		{"netreld.response_bytes", orZero(ls.responseBytes, mean), len(ls.responseBytes), "mean per response"},
		{"netreld.invalidate_ms", orZero(ls.invalidateMS, mean), len(ls.invalidateMS), "mean per write"},
		{"netreld.reindex_ms", orZero(ls.reindexMS, mean), len(ls.reindexMS), "mean per write"},
		{"telemetry.trace_overhead_frac", ls.traceOverhead, n, "traced / untraced read p50 - 1"},
	}
}
