// Package batch plans multi-query reliability workloads over one shared
// graph. Real workloads — reliability maximization, s-t comparison, serving
// — issue many terminal-set probes against the same uncertain graph; after
// the extension technique decomposes each query, the resulting subproblems
// overlap heavily (every query crossing the same chain of 2ECCs re-solves
// the interior components). The planner deduplicates subproblems across
// queries by their canonical signature so each unique subproblem is solved
// exactly once, schedules unique work largest-first (the dominant component
// should start before the worker budget fills with small ones), and lets
// per-query results be recombined from the shared solutions.
//
// The package also provides the session-level result cache: an LRU keyed by
// (subproblem signature, options fingerprint) holding solved core.Results,
// so later batches — and repeat queries — skip the solve entirely. Because
// every subproblem's RNG seed derives from its signature (never from its
// position in a query), a cached result is bit-identical to what a fresh
// solve would produce, and dedup/caching are invisible in the output.
package batch

import (
	"sort"

	"netrel/internal/preprocess"
	"netrel/internal/ugraph"
)

// Job is one decomposed subproblem: a transformed subgraph, its terminal
// set, the canonical signature identifying it, and the invalidation cover
// its cached result will carry.
type Job struct {
	G     *ugraph.Graph
	Ts    ugraph.Terminals
	Sig   preprocess.Signature
	Cover Cover
}

// Plan is the deduplicated schedule for a batch of queries.
type Plan struct {
	// Unique holds each distinct subproblem exactly once, ordered
	// largest-first by edge count (ties broken by signature) so a
	// chunk-claiming scheduler starts the dominant subproblems before the
	// small ones.
	Unique []Job
	// Refs maps each query's job list onto Unique: Refs[q][j] is the index
	// in Unique of query q's j-th subproblem, in the query's own job order.
	Refs [][]int
}

// Build deduplicates the queries' jobs by signature and orders the unique
// jobs largest-first. The input is one job list per query (empty lists are
// fine); the result is deterministic: it depends only on the job lists,
// never on scheduling.
func Build(queries [][]Job) *Plan {
	p := &Plan{Refs: make([][]int, len(queries))}
	index := make(map[preprocess.Signature]int)
	for q, jobs := range queries {
		if len(jobs) == 0 {
			continue
		}
		refs := make([]int, len(jobs))
		for j, job := range jobs {
			u, ok := index[job.Sig]
			if !ok {
				u = len(p.Unique)
				index[job.Sig] = u
				p.Unique = append(p.Unique, job)
			}
			refs[j] = u
		}
		p.Refs[q] = refs
	}
	// Largest-first solve order; remap the query references accordingly.
	order := make([]int, len(p.Unique))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ja, jb := p.Unique[order[a]], p.Unique[order[b]]
		if ja.G.M() != jb.G.M() {
			return ja.G.M() > jb.G.M()
		}
		return ja.Sig.Less(jb.Sig)
	})
	rank := make([]int, len(order)) // old unique index → new position
	sorted := make([]Job, len(order))
	for pos, old := range order {
		rank[old] = pos
		sorted[pos] = p.Unique[old]
	}
	p.Unique = sorted
	for _, refs := range p.Refs {
		for j, u := range refs {
			refs[j] = rank[u]
		}
	}
	return p
}
