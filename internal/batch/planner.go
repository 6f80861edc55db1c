package batch

import "netrel/internal/preprocess"

// SpecDedup is the plan-level deduplication of a batch: queries grouped by
// canonical spec signature — mode, terminal set, and evidence — so each
// distinct spec is planned exactly once and the resulting plan fans out to
// every query that shares it. Dedup here is sound because all queries of a
// batch run against the same graph, so the canonical spec alone determines
// the preprocessing outcome (conditioning is a deterministic graph rewrite,
// and terminal-set planning reads only the shared 2ECC index) — and plans
// are bit-identical by construction, since subproblem RNG seeds derive from
// canonical subproblem signatures, never from a query's position in the
// batch.
type SpecDedup struct {
	// Slot[q] is the distinct-plan slot of query q.
	Slot []int
	// First[q-index per slot]: First[d] is the first query planning slot d,
	// in batch order — slots are numbered in first-use order, so iterating
	// slots is deterministic and errors can be attributed to a concrete
	// query.
	First []int
}

// DedupSpecs groups queries by canonical spec signature. Slots appear in
// first-use order, so the result depends only on the query list, never on
// scheduling.
func DedupSpecs(sigs []preprocess.Signature) *SpecDedup {
	td := &SpecDedup{Slot: make([]int, len(sigs))}
	index := make(map[preprocess.Signature]int, len(sigs))
	for q, sig := range sigs {
		d, ok := index[sig]
		if !ok {
			d = len(td.First)
			index[sig] = d
			td.First = append(td.First, q)
		}
		td.Slot[q] = d
	}
	return td
}

// Distinct returns the number of distinct plans (specs) in the
// batch.
func (td *SpecDedup) Distinct() int { return len(td.First) }

// Deduped returns the number of queries answered by another query's plan.
func (td *SpecDedup) Deduped() int { return len(td.Slot) - len(td.First) }
