package netrel

// Dynamic-graph tests: the bit-identity contract of what-if and mutation
// (a what-if result must equal evicting and re-registering the mutated
// graph and querying cold, for any worker count), the cover map's cache
// hygiene (untouched subproblems keep their entries across a mutation),
// and the greedy reliability maximizer's determinism.

import (
	"errors"
	"math/rand/v2"
	"testing"
)

// randDynDelta draws a delta against g mixing probability updates, a
// removal, and an addition. topology selects whether the delta may change
// the edge set.
func randDynDelta(rng *rand.Rand, g *Graph, topology bool) GraphDelta {
	var d GraphDelta
	m := g.M()
	if m == 0 {
		return d
	}
	used := map[int]bool{}
	for i, n := 0, 1+rng.IntN(2); i < n; i++ {
		e := rng.IntN(m)
		if used[e] {
			continue
		}
		used[e] = true
		d.SetProb = append(d.SetProb, EdgeProbUpdate{Edge: e, P: 0.05 + 0.9*rng.Float64()})
	}
	if topology {
		if rng.IntN(2) == 0 && m > 1 {
			for {
				e := rng.IntN(m)
				if !used[e] {
					used[e] = true
					d.Remove = append(d.Remove, e)
					break
				}
			}
		}
		u, v := rng.IntN(g.N()), rng.IntN(g.N())
		if u != v {
			d.Add = append(d.Add, Edge{U: u, V: v, P: 0.05 + 0.9*rng.Float64()})
		}
	}
	return d
}

// TestWhatIfBitIdentity pins the tentpole invariant: a what-if answer is
// bit-identical to applying the delta for real — a cold session over the
// mutated graph — for probability-only and topology deltas, across worker
// counts, from a warm session whose cache serves the untouched
// subproblems.
func TestWhatIfBitIdentity(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewPCG(11, 17))
	workerSweep := workerCounts()
	for iter := 0; iter < 30; iter++ {
		c := randomDiffCase(rng, iter)
		topology := iter%2 == 1
		delta := randDynDelta(rng, c.g, topology)
		if delta.Empty() {
			continue
		}
		mutated, err := c.g.Apply(delta)
		if err != nil {
			t.Fatalf("%s: apply: %v", c.name, err)
		}
		spec := QuerySpec{Terminals: c.terms}
		for _, w := range workerSweep {
			opts := []Option{WithSamples(400), WithMaxWidth(8), WithSeed(uint64(iter)), WithWorkers(w)}
			warm := NewSession(c.g)
			// Warm the session: the base query fills the cache with covers,
			// and the what-if must answer correctly through them.
			if _, err := warm.Solve(spec, opts...); err != nil {
				t.Fatalf("%s: warm query: %v", c.name, err)
			}
			got, err := warm.WhatIf(delta, spec, opts...)
			if err != nil {
				t.Fatalf("%s: whatif: %v", c.name, err)
			}
			want, err := NewSession(mutated).Solve(spec, opts...)
			if err != nil {
				t.Fatalf("%s: cold query: %v", c.name, err)
			}
			assertSameResult(t, c.name, got, want)
			// The session itself is untouched.
			if warm.GraphVersion() != 0 || warm.Graph().M() != c.g.M() {
				t.Fatalf("%s: whatif mutated the session", c.name)
			}
			// Batch what-if agrees with the single-query path.
			batch, err := warm.WhatIfBatch(delta, []Query{spec, spec}, opts...)
			if err != nil {
				t.Fatalf("%s: whatif batch: %v", c.name, err)
			}
			assertSameResult(t, c.name+" (batch)", batch[0], want)
			assertSameResult(t, c.name+" (batch dup)", batch[1], want)
		}
	}
}

// TestMutateBitIdentity pins the same invariant for persistent mutation:
// after Mutate, the session answers exactly like a fresh session over the
// mutated graph, through a chain of mutations.
func TestMutateBitIdentity(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewPCG(23, 5))
	for iter := 0; iter < 15; iter++ {
		c := randomDiffCase(rng, iter)
		sess := NewSession(c.g)
		opts := []Option{WithSamples(300), WithMaxWidth(8), WithSeed(uint64(iter))}
		g := c.g
		for step := 0; step < 3; step++ {
			// Query first so the mutation has a warm index and cache to
			// maintain.
			if _, err := sess.Solve(QuerySpec{Terminals: c.terms}, opts...); err != nil {
				t.Fatalf("%s: query: %v", c.name, err)
			}
			delta := randDynDelta(rng, g, step%2 == 0)
			if delta.Empty() {
				continue
			}
			stats, err := sess.Mutate(delta)
			if err != nil {
				t.Fatalf("%s: mutate: %v", c.name, err)
			}
			if g, err = g.Apply(delta); err != nil {
				t.Fatalf("%s: apply: %v", c.name, err)
			}
			if stats.Version != sess.GraphVersion() || stats.Version != uint64(step+1) {
				t.Fatalf("%s: version %d after %d mutations", c.name, stats.Version, step+1)
			}
			if !stats.IndexUpdated {
				t.Fatalf("%s: index was warm but not maintained", c.name)
			}
			got, err := sess.Solve(QuerySpec{Terminals: c.terms}, opts...)
			if err != nil {
				t.Fatalf("%s: post-mutate query: %v", c.name, err)
			}
			want, err := NewSession(g).Solve(QuerySpec{Terminals: c.terms}, opts...)
			if err != nil {
				t.Fatalf("%s: fresh query: %v", c.name, err)
			}
			assertSameResult(t, c.name, got, want)
		}
	}
}

// coverGraph is two triangles joined by a bridge: the extension decomposes
// a {0,5} query into one subproblem per triangle, so cache survival is
// observable per component. The triangles' probabilities differ so their
// canonical signatures do too — identical triangles would dedupe to one
// cache entry.
func coverGraph(t *testing.T) *Graph {
	t.Helper()
	g, err := FromEdges(6, []Edge{
		{U: 0, V: 1, P: 0.8}, {U: 1, V: 2, P: 0.8}, {U: 0, V: 2, P: 0.8},
		{U: 3, V: 4, P: 0.7}, {U: 4, V: 5, P: 0.7}, {U: 3, V: 5, P: 0.7},
		{U: 2, V: 3, P: 0.9},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestMutateKeepsUntouchedCovers proves the cover map's point: a mutation
// confined to one 2ECC keeps the other component's cache entry, and the
// next query hits it.
func TestMutateKeepsUntouchedCovers(t *testing.T) {
	t.Parallel()
	sess := NewSession(coverGraph(t))
	opts := []Option{WithSamples(500), WithMaxWidth(4), WithSeed(3)}
	if _, err := sess.Reliability([]int{0, 5}, opts...); err != nil {
		t.Fatal(err)
	}
	base := sess.CacheStats()
	if base.Entries != 2 {
		t.Fatalf("expected one entry per triangle, got %d", base.Entries)
	}

	// Probability change inside triangle A: triangle B's entry must
	// survive, A's must go.
	stats, err := sess.Mutate(GraphDelta{SetProb: []EdgeProbUpdate{{Edge: 0, P: 0.5}}})
	if err != nil {
		t.Fatal(err)
	}
	if stats.TopologyChanged {
		t.Fatal("probability delta reported as topology change")
	}
	if stats.InvalidatedEntries != 1 || stats.KeptEntries != 1 {
		t.Fatalf("invalidated %d kept %d, want 1 and 1", stats.InvalidatedEntries, stats.KeptEntries)
	}
	if _, err := sess.Reliability([]int{0, 5}, opts...); err != nil {
		t.Fatal(err)
	}
	after := sess.CacheStats()
	if hits := after.Hits - base.Hits; hits != 1 {
		t.Fatalf("untouched triangle should hit the cache once, hits delta %d", hits)
	}
	if misses := after.Misses - base.Misses; misses != 1 {
		t.Fatalf("touched triangle should miss once, misses delta %d", misses)
	}

	// Bridge probability change touches no component: both entries stay and
	// the next query is all hits.
	stats, err = sess.Mutate(GraphDelta{SetProb: []EdgeProbUpdate{{Edge: 6, P: 0.95}}})
	if err != nil {
		t.Fatal(err)
	}
	if stats.InvalidatedEntries != 0 || stats.KeptEntries != 2 {
		t.Fatalf("bridge delta invalidated %d kept %d, want 0 and 2", stats.InvalidatedEntries, stats.KeptEntries)
	}
	mid := sess.CacheStats()
	if _, err := sess.Reliability([]int{0, 5}, opts...); err != nil {
		t.Fatal(err)
	}
	after = sess.CacheStats()
	if hits := after.Hits - mid.Hits; hits != 2 {
		t.Fatalf("bridge-only delta should leave both entries hittable, hits delta %d", hits)
	}

	// Topology change inside triangle B (remove edge 3-4): triangle A's
	// entry survives the component renumbering.
	stats, err = sess.Mutate(GraphDelta{Remove: []int{3}})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.TopologyChanged || stats.KeptEntries != 1 || stats.InvalidatedEntries != 1 {
		t.Fatalf("topology delta: %+v, want topology with 1 kept and 1 invalidated", stats)
	}
	if sess.CacheInvalidations() != 2 {
		t.Fatalf("session counted %d invalidations, want 2", sess.CacheInvalidations())
	}

	// A mixed delta: a probability change inside triangle A plus a removal
	// inside triangle B changes both components' content, so neither entry
	// may survive.
	sess = NewSession(coverGraph(t))
	if _, err := sess.Reliability([]int{0, 5}, opts...); err != nil {
		t.Fatal(err)
	}
	stats, err = sess.Mutate(GraphDelta{SetProb: []EdgeProbUpdate{{Edge: 0, P: 0.5}}, Remove: []int{3}})
	if err != nil {
		t.Fatal(err)
	}
	if stats.InvalidatedEntries != 2 || stats.KeptEntries != 0 {
		t.Fatalf("mixed delta invalidated %d kept %d, want 2 and 0", stats.InvalidatedEntries, stats.KeptEntries)
	}
}

// TestWhatIfUsesCache asserts the serving win: a what-if on a warm session
// re-solves only the covered subproblem and answers the rest from cache.
func TestWhatIfUsesCache(t *testing.T) {
	t.Parallel()
	sess := NewSession(coverGraph(t))
	opts := []Option{WithSamples(500), WithMaxWidth(4), WithSeed(9)}
	if _, err := sess.Reliability([]int{0, 5}, opts...); err != nil {
		t.Fatal(err)
	}
	before := sess.CacheStats()
	delta := GraphDelta{SetProb: []EdgeProbUpdate{{Edge: 0, P: 0.4}}}
	if _, err := sess.WhatIf(delta, QuerySpec{Terminals: []int{0, 5}}, opts...); err != nil {
		t.Fatal(err)
	}
	after := sess.CacheStats()
	if hits := after.Hits - before.Hits; hits != 1 {
		t.Fatalf("what-if should hit the untouched triangle's entry, hits delta %d", hits)
	}
	if misses := after.Misses - before.Misses; misses != 1 {
		t.Fatalf("what-if should re-solve only the touched triangle, misses delta %d", misses)
	}
	// A repeated identical what-if is served entirely from cache.
	if _, err := sess.WhatIf(delta, QuerySpec{Terminals: []int{0, 5}}, opts...); err != nil {
		t.Fatal(err)
	}
	final := sess.CacheStats()
	if misses := final.Misses - after.Misses; misses != 0 {
		t.Fatalf("repeated what-if should be all hits, misses delta %d", misses)
	}
}

// TestMutateValidation checks error paths: bad deltas leave the session
// untouched.
func TestMutateValidation(t *testing.T) {
	t.Parallel()
	sess := NewSession(coverGraph(t))
	bad := []GraphDelta{
		{SetProb: []EdgeProbUpdate{{Edge: 99, P: 0.5}}},
		{SetProb: []EdgeProbUpdate{{Edge: 0, P: 0}}},
		{Remove: []int{-1}},
		{Add: []Edge{{U: 0, V: 0, P: 0.5}}},
		{Add: []Edge{{U: 0, V: 99, P: 0.5}}},
	}
	for i, d := range bad {
		if _, err := sess.Mutate(d); err == nil {
			t.Fatalf("bad delta %d accepted", i)
		}
	}
	if sess.GraphVersion() != 0 || sess.Mutations() != 0 {
		t.Fatal("failed mutations advanced the session")
	}
}

// TestMaximizeReliability checks the greedy upgrader: deterministic across
// worker counts, monotone in reliability, respecting the candidate pool,
// and with each step's result bit-identical to querying the upgraded
// graph directly.
func TestMaximizeReliability(t *testing.T) {
	t.Parallel()
	g := coverGraph(t)
	spec := QuerySpec{Terminals: []int{0, 5}}
	budget := UpgradeBudget{MaxEdges: 3, NewProb: 0.99}
	var first *UpgradePlan
	for _, w := range workerCounts() {
		opts := []Option{WithSamples(400), WithMaxWidth(4), WithSeed(7), WithWorkers(w)}
		plan, err := NewSession(g).MaximizeReliability(spec, budget, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.Steps) != 3 {
			t.Fatalf("want 3 steps, got %d", len(plan.Steps))
		}
		if plan.Final.Reliability < plan.Base.Reliability {
			t.Fatalf("upgrades decreased reliability: %v -> %v",
				plan.Base.Reliability, plan.Final.Reliability)
		}
		prev := plan.Base.Log10
		gg := g
		for i, step := range plan.Steps {
			if step.Result.Log10 < prev {
				t.Fatalf("step %d decreased Log10: %v -> %v", i, prev, step.Result.Log10)
			}
			prev = step.Result.Log10
			var err error
			gg, err = gg.Apply(GraphDelta{SetProb: []EdgeProbUpdate{{Edge: step.Edge, P: budget.NewProb}}})
			if err != nil {
				t.Fatalf("step %d: apply: %v", i, err)
			}
			want, err := NewSession(gg).Solve(spec, opts...)
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, "step result vs direct query", step.Result, want)
		}
		if first == nil {
			first = plan
		} else {
			for i := range plan.Steps {
				if plan.Steps[i].Edge != first.Steps[i].Edge {
					t.Fatalf("worker count changed the plan: step %d edge %d vs %d",
						i, plan.Steps[i].Edge, first.Steps[i].Edge)
				}
			}
			assertSameResult(t, "final across workers", plan.Final, first.Final)
		}
	}

	// A restricted pool is honored, and exhausting it stops early.
	plan, err := NewSession(g).MaximizeReliability(spec, UpgradeBudget{
		MaxEdges: 5, NewProb: 0.99, Candidates: []int{1, 4},
	}, WithSamples(200), WithMaxWidth(4), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) != 2 {
		t.Fatalf("pool of 2 should yield 2 steps, got %d", len(plan.Steps))
	}
	for _, step := range plan.Steps {
		if step.Edge != 1 && step.Edge != 4 {
			t.Fatalf("upgrade outside the candidate pool: edge %d", step.Edge)
		}
	}

	// Invalid budgets are rejected.
	for _, b := range []UpgradeBudget{
		{MaxEdges: 0, NewProb: 0.9},
		{MaxEdges: 1, NewProb: 0},
		{MaxEdges: 1, NewProb: 1.5},
		{MaxEdges: 1, NewProb: 0.9, Candidates: []int{99}},
	} {
		if _, err := NewSession(g).MaximizeReliability(spec, b); !errors.Is(err, ErrUpgradeBudget) {
			t.Fatalf("budget %+v: want ErrUpgradeBudget, got %v", b, err)
		}
	}
}

// TestRegistryMutate covers the registry layer: in-place mutation under
// the same name and session, version surfaced in List, unknown names
// rejected.
func TestRegistryMutate(t *testing.T) {
	t.Parallel()
	reg := NewRegistry(nil)
	if err := reg.Register("g", "test", coverGraph(t)); err != nil {
		t.Fatal(err)
	}
	sess, err := reg.Session("g")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Reliability([]int{0, 5}, WithSamples(200), WithMaxWidth(4), WithSeed(2)); err != nil {
		t.Fatal(err)
	}
	stats, err := reg.Mutate("g", GraphDelta{SetProb: []EdgeProbUpdate{{Edge: 0, P: 0.5}}})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Version != 1 {
		t.Fatalf("version %d after first mutation", stats.Version)
	}
	again, err := reg.Session("g")
	if err != nil {
		t.Fatal(err)
	}
	if again != sess {
		t.Fatal("mutation replaced the session")
	}
	infos := reg.List()
	if len(infos) != 1 || infos[0].Version != 1 {
		t.Fatalf("List version = %+v, want 1", infos)
	}
	if _, err := reg.Mutate("missing", GraphDelta{Remove: []int{0}}); !errors.Is(err, ErrGraphNotFound) {
		t.Fatalf("unknown graph: got %v", err)
	}
}
