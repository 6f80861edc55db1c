package netrel

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"sync"
	"testing"
	"time"
)

// blockChainGraph builds the canonical batch-sharing workload: `blocks`
// dense random 2ECCs of `blockSize` vertices, consecutive blocks joined by
// a single bridge. Queries whose terminals sit in the first and last block
// all decompose onto the same interior subproblems, so a batch planner
// should solve each interior block once for the whole batch.
func blockChainGraph(t testing.TB, blocks, blockSize int, seed uint64) *Graph {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 0xb10c))
	g := NewGraph(blocks * blockSize)
	add := func(u, v int, p float64) {
		if err := g.AddEdge(u, v, p); err != nil {
			t.Fatal(err)
		}
	}
	for b := 0; b < blocks; b++ {
		base := b * blockSize
		// A ring plus chords keeps every block 2-edge-connected and wide
		// enough that a narrow S2BDD must sample.
		for i := 0; i < blockSize; i++ {
			add(base+i, base+(i+1)%blockSize, 0.3+0.6*rng.Float64())
		}
		for i := 0; i < blockSize; i++ {
			u, v := rng.IntN(blockSize), rng.IntN(blockSize)
			if u != v && v != (u+1)%blockSize && u != (v+1)%blockSize {
				add(base+u, base+v, 0.3+0.6*rng.Float64())
			}
		}
		if b > 0 {
			add(base-1, base, 0.8) // bridge to previous block
		}
	}
	return g
}

// endToEndQueries returns n queries whose terminals vary inside the first
// and last blocks of a blockChainGraph, so all interior blocks are shared.
func endToEndQueries(g *Graph, blocks, blockSize, n int) []Query {
	out := make([]Query, 0, n)
	for i := 0; i < n; i++ {
		u := i % (blockSize - 1)
		v := g.N() - 1 - (i+1)%(blockSize-1)
		out = append(out, Query{Terminals: []int{u, v}})
	}
	return out
}

// TestBatchMatchesSequential is the acceptance criterion: BatchReliability
// over N terminal sets must be bit-identical to N individual
// Session.Reliability calls with the same seed, for workers 1, 4, and
// GOMAXPROCS.
func TestBatchMatchesSequential(t *testing.T) {
	const blocks, blockSize = 4, 8
	g := blockChainGraph(t, blocks, blockSize, 7)
	queries := endToEndQueries(g, blocks, blockSize, 6)

	for _, w := range workerCounts() {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			opts := []Option{WithSamples(2000), WithSeed(42), WithMaxWidth(24), WithWorkers(w)}

			// Fresh sessions so neither path warms the other's cache.
			seq := NewSession(g)
			want := make([]*Result, len(queries))
			for i, q := range queries {
				r, err := seq.Reliability(q.Terminals, opts...)
				if err != nil {
					t.Fatal(err)
				}
				want[i] = r
			}

			bat := NewSession(g)
			got, err := bat.BatchReliability(queries, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(queries) {
				t.Fatalf("%d results for %d queries", len(got), len(queries))
			}
			for i := range queries {
				assertSameResult(t, fmt.Sprintf("query %d", i), want[i], got[i])
			}

			// The package-level entry point (no session, no cache) must
			// agree too: seeds derive from signatures, not from who solves.
			direct, err := Reliability(g, queries[0].Terminals, opts...)
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, "package-level", want[0], direct)
		})
	}
}

// TestBatchSharesSubproblems pins the sharing structure the speedup rests
// on: interior blocks are solved once for the whole batch, so unique
// solves are well under the sequential job count (≥30% shared).
func TestBatchSharesSubproblems(t *testing.T) {
	const blocks, blockSize = 5, 8
	g := blockChainGraph(t, blocks, blockSize, 11)
	queries := endToEndQueries(g, blocks, blockSize, 6)

	s := NewSession(g)
	res, err := s.BatchReliability(queries, WithSamples(500), WithSeed(3), WithMaxWidth(24))
	if err != nil {
		t.Fatal(err)
	}
	totalJobs := 0
	for _, r := range res {
		if r.Subproblems != blocks {
			t.Fatalf("query decomposed into %d subproblems, want %d", r.Subproblems, blocks)
		}
		totalJobs += r.Subproblems
	}
	st := s.CacheStats()
	unique := int(st.Misses) // every unique subproblem missed exactly once
	if unique >= totalJobs {
		t.Fatalf("no sharing: %d unique solves for %d jobs", unique, totalJobs)
	}
	shared := 1 - float64(unique)/float64(totalJobs)
	if shared < 0.30 {
		t.Fatalf("shared fraction %.2f < 0.30 (unique %d of %d)", shared, unique, totalJobs)
	}
	// 3 interior blocks solved once each + 2·6 end blocks = 15 unique.
	if unique != (blocks-2)+2*len(queries) {
		t.Fatalf("unique solves = %d, want %d", unique, (blocks-2)+2*len(queries))
	}
}

// sequentialAndBatch returns the two sides that BenchmarkBatchReliability
// and TestSpeedupFloors compare: every query solved alone with result reuse
// off, and all of them as one batch on a fresh session.
func sequentialAndBatch(g *Graph, queries []Query, opts []Option) (seq, bat func() error) {
	seq = func() error {
		s := NewSession(g)
		s.SetCacheCapacity(0)
		for _, q := range queries {
			if _, err := s.Reliability(q.Terminals, opts...); err != nil {
				return err
			}
		}
		return nil
	}
	bat = func() error {
		_, err := NewSession(g).BatchReliability(queries, opts...)
		return err
	}
	return seq, bat
}

// BenchmarkBatchReliability is the batch engine's acceptance benchmark: 12
// end-to-end terminal pairs over a chain of 8 dense 2ECC blocks, where
// every interior block is shared by all queries (24 of 96 subproblems are
// unique — 75% shared, well past the ≥30% sharing bar). sequential solves
// each query alone (result reuse disabled); batch deduplicates subproblems
// across the batch. Both produce bit-identical results; TestSpeedupFloors
// holds the batch to ≥1.5× faster.
func BenchmarkBatchReliability(b *testing.B) {
	const blocks, blockSize = 8, 10
	g := blockChainGraph(b, blocks, blockSize, 29)
	seq, bat := sequentialAndBatch(g, endToEndQueries(g, blocks, blockSize, 12),
		[]Option{WithSamples(4000), WithMaxWidth(24), WithoutSampleReduction(), WithSeed(7)})
	for _, side := range []struct {
		name string
		run  func() error
	}{{"sequential", seq}, {"batch", bat}} {
		b.Run(side.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := side.run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestBatchCacheWarmsRepeatQueries checks that a second identical batch is
// answered entirely from the session cache, bit-identically.
func TestBatchCacheWarmsRepeatQueries(t *testing.T) {
	const blocks, blockSize = 3, 8
	g := blockChainGraph(t, blocks, blockSize, 13)
	queries := endToEndQueries(g, blocks, blockSize, 4)
	opts := []Option{WithSamples(500), WithSeed(5), WithMaxWidth(24)}

	s := NewSession(g)
	first, err := s.BatchReliability(queries, opts...)
	if err != nil {
		t.Fatal(err)
	}
	missesAfterFirst := s.CacheStats().Misses
	second, err := s.BatchReliability(queries, opts...)
	if err != nil {
		t.Fatal(err)
	}
	st := s.CacheStats()
	if st.Misses != missesAfterFirst {
		t.Fatalf("second batch missed the cache %d times", st.Misses-missesAfterFirst)
	}
	if st.Hits == 0 {
		t.Fatal("second batch recorded no cache hits")
	}
	for i := range queries {
		assertSameResult(t, fmt.Sprintf("warm query %d", i), first[i], second[i])
	}

	// A sequential repeat query also rides the same cache.
	r, err := s.Reliability(queries[0].Terminals, opts...)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "sequential after batch", first[0], r)

	// Different options must not share cached results: a batch with a new
	// seed (or sample budget) has a different fingerprint, so every unique
	// subproblem must miss the cache again — exactly as many misses as the
	// cold batch recorded.
	missesBefore := st.Misses
	if _, err := s.BatchReliability(queries, WithSamples(500), WithSeed(6), WithMaxWidth(24)); err != nil {
		t.Fatal(err)
	}
	afterSeed := s.CacheStats().Misses
	if afterSeed-missesBefore != missesAfterFirst {
		t.Fatalf("new-seed batch missed %d times, want %d (fingerprint failed to separate seeds)",
			afterSeed-missesBefore, missesAfterFirst)
	}
	if _, err := s.BatchReliability(queries, WithSamples(700), WithSeed(5), WithMaxWidth(24)); err != nil {
		t.Fatal(err)
	}
	afterSamples := s.CacheStats().Misses
	if afterSamples-afterSeed != missesAfterFirst {
		t.Fatalf("new-samples batch missed %d times, want %d (fingerprint failed to separate budgets)",
			afterSamples-afterSeed, missesAfterFirst)
	}
}

func TestBatchEdgeCases(t *testing.T) {
	g := bridgeOfTriangles(t)
	s := NewSession(g)

	// Regression: an empty batch must honour "one Result per query, in
	// query order" — a non-nil empty slice, not the old nil, nil.
	if res, err := s.BatchReliability(nil); err != nil || res == nil || len(res) != 0 {
		t.Fatalf("nil batch: %v, %v (want non-nil empty slice)", res, err)
	}
	if res, err := s.BatchReliability([]Query{}); err != nil || res == nil || len(res) != 0 {
		t.Fatalf("empty batch: %v, %v (want non-nil empty slice)", res, err)
	}

	// Trivial, disconnected, and regular queries mixed in one batch.
	gd, err := FromEdges(4, []Edge{{0, 1, 0.9}, {2, 3, 0.9}})
	if err != nil {
		t.Fatal(err)
	}
	sd := NewSession(gd)
	res, err := sd.BatchReliability([]Query{
		{Terminals: []int{0, 2}}, // disconnected: R = 0 exactly
		{Terminals: []int{1}},    // single terminal: R = 1 exactly
		{Terminals: []int{0, 1}}, // one bridge: R = 0.9 exactly
	}, WithSamples(100), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Reliability != 0 || !res[0].Exact {
		t.Fatalf("disconnected query: %+v", res[0])
	}
	if res[1].Reliability != 1 || !res[1].Exact {
		t.Fatalf("single-terminal query: %+v", res[1])
	}
	if res[2].Reliability != 0.9 || !res[2].Exact {
		t.Fatalf("bridge query: %+v", res[2])
	}

	// An invalid query fails the whole batch, naming the query.
	_, err = s.BatchReliability([]Query{{Terminals: []int{0, 5}}, {Terminals: []int{99}}})
	if err == nil || !strings.Contains(err.Error(), "query 1") {
		t.Fatalf("invalid query error = %v", err)
	}
	if _, err := s.BatchReliability([]Query{{Terminals: []int{0}}}, WithSamples(-1)); err == nil {
		t.Fatal("bad option accepted")
	}
}

// TestBatchPreprocessStatsPopulated covers the Bridges satellite fix: the
// documented field must be filled on every pipeline path.
func TestBatchPreprocessStatsPopulated(t *testing.T) {
	g := bridgeOfTriangles(t)
	s := NewSession(g)
	res, err := s.BatchReliability([]Query{{Terminals: []int{0, 5}}}, WithSamples(100), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Preprocess == nil || res[0].Preprocess.Bridges != 1 {
		t.Fatalf("Preprocess.Bridges not populated: %+v", res[0].Preprocess)
	}
	direct, err := Reliability(g, []int{0, 5}, WithSamples(100), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if direct.Preprocess == nil || direct.Preprocess.Bridges != 1 {
		t.Fatalf("Preprocess.Bridges not populated on direct path: %+v", direct.Preprocess)
	}
}

// TestSessionConcurrentMixedQueries issues overlapping Reliability and
// BatchReliability calls on one session and asserts every result matches
// the sequential baseline; it exists to run under `go test -race` (the
// satellite acceptance for concurrent Session use).
func TestSessionConcurrentMixedQueries(t *testing.T) {
	const blocks, blockSize = 4, 8
	g := blockChainGraph(t, blocks, blockSize, 17)
	queries := endToEndQueries(g, blocks, blockSize, 5)
	opts := []Option{WithSamples(800), WithSeed(9), WithMaxWidth(24), WithWorkers(4)}

	// Sequential baseline on a private session.
	base := NewSession(g)
	want := make([]*Result, len(queries))
	for i, q := range queries {
		r, err := base.Reliability(q.Terminals, opts...)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}

	shared := NewSession(g)
	var wg sync.WaitGroup
	const rounds = 4
	batchOut := make([][]*Result, rounds)
	singleOut := make([][]*Result, rounds)
	errs := make([]error, 2*rounds)
	for r := 0; r < rounds; r++ {
		wg.Add(2)
		go func(r int) {
			defer wg.Done()
			res, err := shared.BatchReliability(queries, opts...)
			batchOut[r], errs[2*r] = res, err
		}(r)
		go func(r int) {
			defer wg.Done()
			out := make([]*Result, len(queries))
			for i, q := range queries {
				res, err := shared.Reliability(q.Terminals, opts...)
				if err != nil {
					errs[2*r+1] = err
					return
				}
				out[i] = res
			}
			singleOut[r] = out
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < rounds; r++ {
		for i := range queries {
			assertSameResult(t, fmt.Sprintf("round %d batch query %d", r, i), want[i], batchOut[r][i])
			assertSameResult(t, fmt.Sprintf("round %d single query %d", r, i), want[i], singleOut[r][i])
		}
	}
}

// TestBatchPlanDeterminism is the tentpole acceptance sweep: a batch with
// duplicate terminal sets and a disconnected ("done") query must be
// bit-identical across worker budgets 1, 3, 4 and GOMAXPROCS (planning
// runs on the WithWorkers budget), and against sequential
// Session.Reliability — while duplicates are planned exactly once,
// asserted via the session's planner stats.
func TestBatchPlanDeterminism(t *testing.T) {
	const blocks, blockSize = 4, 8
	base := blockChainGraph(t, blocks, blockSize, 7)
	// One extra isolated vertex makes a disconnected (planning-only) query
	// possible alongside the solving ones.
	g, err := FromEdges(base.N()+1, base.Edges())
	if err != nil {
		t.Fatal(err)
	}
	isolated := g.N() - 1

	distinct := endToEndQueries(base, blocks, blockSize, 4)
	queries := append([]Query{}, distinct...)
	queries = append(queries, distinct[1], distinct[0], distinct[1]) // duplicates
	queries = append(queries, Query{Terminals: []int{0, isolated}})  // done: R = 0
	opts := []Option{WithSamples(1500), WithSeed(21), WithMaxWidth(24)}
	wantPlanned := uint64(len(distinct) + 1)

	seq := NewSession(g)
	want := make([]*Result, len(queries))
	for i, q := range queries {
		r, err := seq.Reliability(q.Terminals, opts...)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}
	if !want[len(queries)-1].Exact || want[len(queries)-1].Reliability != 0 {
		t.Fatalf("disconnected query not answered exactly: %+v", want[len(queries)-1])
	}

	for _, pw := range append(workerCounts(), 3) {
		t.Run(fmt.Sprintf("planworkers=%d", pw), func(t *testing.T) {
			s := NewSession(g)
			got, err := s.BatchReliability(queries, append(append([]Option{}, opts...), WithWorkers(pw))...)
			if err != nil {
				t.Fatal(err)
			}
			for i := range queries {
				assertSameResult(t, fmt.Sprintf("query %d", i), want[i], got[i])
			}
			st := s.PlanStats()
			if st.Batches != 1 || st.Queries != uint64(len(queries)) {
				t.Fatalf("plan stats counted %d batches / %d queries, want 1 / %d",
					st.Batches, st.Queries, len(queries))
			}
			if st.Planned != wantPlanned {
				t.Fatalf("planned %d distinct terminal sets, want %d (duplicates must be planned once)",
					st.Planned, wantPlanned)
			}
			if st.UniqueSubproblems >= st.TotalSubproblems {
				t.Fatalf("no subproblem sharing: %d unique of %d", st.UniqueSubproblems, st.TotalSubproblems)
			}
		})
	}
}

// TestBatchResultsDoNotAlias pins the fan-out contract: queries sharing one
// deduplicated plan must still get independent Result (and PreprocessStats)
// values, so callers may mutate one without corrupting another.
func TestBatchResultsDoNotAlias(t *testing.T) {
	g := bridgeOfTriangles(t)
	s := NewSession(g)
	res, err := s.BatchReliability([]Query{
		{Terminals: []int{0, 5}},
		{Terminals: []int{5, 0}}, // same canonical terminal set
	}, WithSamples(200), WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	if res[0] == res[1] {
		t.Fatal("duplicate queries share one *Result")
	}
	if res[0].Preprocess == nil || res[0].Preprocess == res[1].Preprocess {
		t.Fatal("duplicate queries alias PreprocessStats")
	}
	if res[0].Reliability != res[1].Reliability {
		t.Fatal("duplicate queries diverged")
	}
}

// TestBatchDurationIsOwnPlanPlusSolve is the Duration satellite: a query's
// Duration must cover its own planning plus the solve phase it took part in
// — never other queries' planning, and no solve phase at all for queries
// answered by preprocessing alone.
func TestBatchDurationIsOwnPlanPlusSolve(t *testing.T) {
	const blocks, blockSize = 4, 8
	base := blockChainGraph(t, blocks, blockSize, 19)
	g, err := FromEdges(base.N()+1, base.Edges())
	if err != nil {
		t.Fatal(err)
	}
	queries := endToEndQueries(base, blocks, blockSize, 4)
	done := len(queries)
	queries = append(queries, Query{Terminals: []int{0, g.N() - 1}}) // disconnected
	trivial := len(queries)
	queries = append(queries, Query{Terminals: []int{1}}) // single terminal: no jobs

	s := NewSession(g)
	start := time.Now()
	res, err := s.BatchReliability(queries, WithSamples(4000), WithSeed(2), WithMaxWidth(24))
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	minSolved := time.Duration(math.MaxInt64)
	for i, r := range res {
		if r.Duration <= 0 {
			t.Fatalf("query %d has non-positive duration %v", i, r.Duration)
		}
		if r.Duration > wall {
			t.Fatalf("query %d duration %v exceeds the whole batch wall-clock %v", i, r.Duration, wall)
		}
		if i != done && i != trivial && r.Duration < minSolved {
			minSolved = r.Duration
		}
	}
	// Queries answered by preprocessing alone — disconnected terminals and
	// the single-terminal trivial query — must not be billed for the solve
	// phase the other queries share.
	for _, i := range []int{done, trivial} {
		if res[i].Duration >= minSolved {
			t.Fatalf("planning-only query %d billed %v, not less than the cheapest solved query %v",
				i, res[i].Duration, minSolved)
		}
	}
	if res[trivial].Reliability != 1 || !res[trivial].Exact {
		t.Fatalf("single-terminal query: %+v", res[trivial])
	}
}

// TestBatchTwoPhaseAdmission pins the admission bugfix: a heavily-shared
// batch is billed its post-dedup solve cost, so it clears a MaxCost that
// the old queries × per-query billing tripped; unshared batches over the
// cap still fail with ErrOverCost (now directly after planning).
func TestBatchTwoPhaseAdmission(t *testing.T) {
	g, err := FromEdges(4, []Edge{{0, 1, 0.9}, {1, 2, 0.8}, {2, 3, 0.9}, {3, 0, 0.7}})
	if err != nil {
		t.Fatal(err)
	}
	opts := []Option{WithSamples(1000), WithSeed(6)}
	o, err := buildOptions(opts)
	if err != nil {
		t.Fatal(err)
	}
	per := solveCost(o, 1, 1, false)

	// Cap at twice one query's cost: 3 duplicates (1 unique subproblem)
	// must pass, 3 distinct terminal sets (3 unique) must not.
	eng := NewEngine(EngineConfig{MaxCost: 2 * per})
	t.Cleanup(eng.Close)
	s := NewSession(g)
	s.SetEngine(eng)

	dup := []Query{{Terminals: []int{0, 2}}, {Terminals: []int{2, 0}}, {Terminals: []int{0, 2}}}
	res, err := s.BatchReliability(dup, opts...)
	if err != nil {
		t.Fatalf("deduplicated batch rejected despite post-dedup cost %d ≤ cap %d: %v", per, 2*per, err)
	}
	want, err := Reliability(g, []int{0, 2}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res {
		assertSameResult(t, fmt.Sprintf("dup query %d", i), want, res[i])
	}
	if st := eng.Stats(); st.Repriced != 1 || st.RejectedOverCost != 0 {
		t.Fatalf("repriced/rejected = %d/%d, want 1/0", st.Repriced, st.RejectedOverCost)
	}

	distinct := []Query{{Terminals: []int{0, 2}}, {Terminals: []int{1, 3}}, {Terminals: []int{0, 3}}}
	if _, err := s.BatchReliability(distinct, opts...); !errors.Is(err, ErrOverCost) {
		t.Fatalf("unshared over-cost batch error = %v, want ErrOverCost", err)
	}
	if st := eng.Stats(); st.RejectedOverCost != 1 {
		t.Fatalf("rejected_over_cost = %d, want 1", st.RejectedOverCost)
	}
	if st := eng.Stats(); st.InFlight != 0 {
		t.Fatalf("repriced-over-cost batch leaked its admission slot: in_flight = %d", st.InFlight)
	}

	// Duplicates of a *decomposing* query: the unique-subproblem count (4
	// blocks) exceeds the distinct-terminal-set count (1), and the solve
	// cost must cap at the latter — the batch costs what its one distinct
	// query costs alone, regardless of how many duplicates ride along.
	const blocks, blockSize = 4, 8
	chain := blockChainGraph(t, blocks, blockSize, 31)
	chainOpts := []Option{WithSamples(1000), WithSeed(6), WithMaxWidth(24)}
	cs := NewSession(chain)
	cs.SetEngine(eng)
	q := endToEndQueries(chain, blocks, blockSize, 1)[0]
	res, err = cs.BatchReliability([]Query{q, q, q, q, q}, chainOpts...)
	if err != nil {
		t.Fatalf("duplicated decomposing batch rejected: %v (solve cost must cap at distinct sets, not queries)", err)
	}
	if res[0].Subproblems != blocks {
		t.Fatalf("workload stopped decomposing (%d subproblems); the cap case is no longer exercised", res[0].Subproblems)
	}
}

// TestSingleQueryIsABatchOfOne pins that a single query is admitted
// exactly like a one-query batch: both run the two admission phases and
// return bit-identical answers with identical engine counters, both fail
// with ErrOverCost after planning under a cap one unit below the solve
// cost — before touching the cache and without leaking their slot — and
// SolveExact is billed its own exact-mode cost.
func TestSingleQueryIsABatchOfOne(t *testing.T) {
	// A 3×3 grid: width 2 forces sampling, width 64 resolves it exactly.
	var edges []Edge
	for v := 0; v < 9; v++ {
		if v%3 < 2 {
			edges = append(edges, Edge{v, v + 1, 0.8})
		}
		if v < 6 {
			edges = append(edges, Edge{v, v + 3, 0.7})
		}
	}
	g, err := FromEdges(9, edges)
	if err != nil {
		t.Fatal(err)
	}
	spec := QuerySpec{Terminals: []int{0, 4, 8}}
	opts := []Option{WithSamples(1000), WithSeed(6), WithMaxWidth(2)}
	o, err := buildOptions(opts)
	if err != nil {
		t.Fatal(err)
	}
	sampled := solveCost(o, 1, 1, false)

	type admission struct{ admitted, repriced, rejected uint64 }
	run := func(maxCost int64, batched bool) (*Result, *Session, admission, error) {
		eng := NewEngine(EngineConfig{MaxCost: maxCost})
		t.Cleanup(eng.Close)
		s := NewSession(g)
		s.SetEngine(eng)
		var res *Result
		var err error
		if batched {
			res, err = first(s.BatchReliability([]Query{spec}, opts...))
		} else {
			res, err = s.Solve(spec, opts...)
		}
		st := eng.Stats()
		if st.InFlight != 0 {
			t.Fatalf("batched=%v: in_flight = %d after the call", batched, st.InFlight)
		}
		return res, s, admission{st.Admitted, st.Repriced, st.RejectedOverCost}, err
	}

	single, _, singleAdm, err := run(sampled, false)
	if err != nil {
		t.Fatal(err)
	}
	if single.Exact {
		t.Fatal("query resolved exactly; the sampled cost is not exercised")
	}
	batched, _, batchAdm, err := run(sampled, true)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "Solve vs batch of one", single, batched)
	if singleAdm != batchAdm || singleAdm != (admission{1, 1, 0}) {
		t.Fatalf("admission single/batch = %+v/%+v, want both {1 1 0}", singleAdm, batchAdm)
	}

	for _, batched := range []bool{false, true} {
		_, s, adm, err := run(sampled-1, batched)
		if !errors.Is(err, ErrOverCost) {
			t.Fatalf("batched=%v: over-cost error = %v, want ErrOverCost", batched, err)
		}
		if st := s.CacheStats(); st.Hits != 0 || st.Misses != 0 || st.Entries != 0 {
			t.Fatalf("batched=%v: rejected query touched the cache: %+v", batched, st)
		}
		if adm != (admission{1, 0, 1}) {
			t.Fatalf("batched=%v: rejected admission = %+v, want {1 0 1}", batched, adm)
		}
	}

	// SolveExact is billed its exact-mode cost: construction at 2·MaxWidth.
	exactOpts := []Option{WithSamples(1000), WithSeed(6), WithMaxWidth(64)}
	eo, err := buildOptions(exactOpts)
	if err != nil {
		t.Fatal(err)
	}
	exact := solveCost(eo, 1, 1, true)
	for _, limit := range []int64{exact - 1, exact} {
		eng := NewEngine(EngineConfig{MaxCost: limit})
		t.Cleanup(eng.Close)
		s := NewSession(g)
		s.SetEngine(eng)
		res, err := s.SolveExact(spec, exactOpts...)
		switch {
		case limit < exact && !errors.Is(err, ErrOverCost):
			t.Fatalf("exact query under cap %d (cost %d): error = %v, want ErrOverCost", limit, exact, err)
		case limit == exact && err != nil:
			t.Fatalf("exact query rejected at its own cost %d: %v", exact, err)
		case limit == exact && !res.Exact:
			t.Fatal("SolveExact returned an estimate")
		}
	}
}

// TestBatchConcurrentTwoPhaseAdmission stresses concurrent batches through
// a small bounded engine — planning on pool slots, interleaved two-phase
// admissions, shared session cache — under `go test -race`; every surviving
// batch must be bit-identical to the sequential baseline.
func TestBatchConcurrentTwoPhaseAdmission(t *testing.T) {
	const blocks, blockSize = 4, 8
	g := blockChainGraph(t, blocks, blockSize, 23)
	queries := endToEndQueries(g, blocks, blockSize, 4)
	queries = append(queries, queries[0], queries[2]) // duplicates in flight
	opts := []Option{WithSamples(600), WithSeed(8), WithMaxWidth(24), WithWorkers(4)}

	baseline := NewSession(g)
	want := make([]*Result, len(queries))
	for i, q := range queries {
		r, err := baseline.Reliability(q.Terminals, opts...)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}

	eng := NewEngine(EngineConfig{Workers: 4, MaxInFlight: 2, QueueDepth: 64, MaxCost: 1 << 40})
	t.Cleanup(eng.Close)
	shared := NewSession(g)
	shared.SetEngine(eng)

	const rounds = 6
	outs := make([][]*Result, rounds)
	errs := make([]error, rounds)
	var wg sync.WaitGroup
	for r := 0; r < rounds; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			// Different worker counts per round exercise every planning
			// and solving shape concurrently; results must not care.
			outs[r], errs[r] = shared.BatchReliability(queries,
				append(append([]Option{}, opts...), WithWorkers(r%3))...)
		}(r)
	}
	wg.Wait()
	for r := 0; r < rounds; r++ {
		if errs[r] != nil {
			t.Fatal(errs[r])
		}
		for i := range queries {
			assertSameResult(t, fmt.Sprintf("round %d query %d", r, i), want[i], outs[r][i])
		}
	}
	st := eng.Stats()
	if st.Repriced != rounds {
		t.Fatalf("repriced = %d, want %d", st.Repriced, rounds)
	}
	if st.InFlight != 0 || st.Queued != 0 {
		t.Fatalf("engine not drained: in_flight=%d queued=%d", st.InFlight, st.Queued)
	}
	ps := shared.PlanStats()
	if ps.Batches != rounds || ps.Planned != rounds*uint64(len(queries)-2) {
		t.Fatalf("planner stats %+v, want %d batches × %d distinct plans", ps, rounds, len(queries)-2)
	}
}
