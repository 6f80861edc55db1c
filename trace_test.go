package netrel

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestTraceObservationOnly is the tentpole invariant: with a fixed seed,
// results are bit-identical whether tracing is on or off, for every worker
// count — terminal-set, conditional, and batch alike.
func TestTraceObservationOnly(t *testing.T) {
	g := denseRandomGraph(t, 40, 140, 11)
	obs := []EdgeObservation{{Edge: 3, Up: true}, {Edge: 17, Up: false}}
	specs := []QuerySpec{
		{Terminals: []int{0, 13, 26, 39}},
		{Mode: ModeConditional, Terminals: []int{0, 26, 39}, Evidence: obs},
	}
	for si, spec := range specs {
		base, err := Solve(g, spec, WithSamples(4000), WithSeed(9), WithMaxWidth(24), WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		if base.Phases != nil {
			t.Fatalf("spec %d: untraced result carries phases", si)
		}
		for _, w := range workerCounts() {
			traced, err := Solve(g, spec,
				WithSamples(4000), WithSeed(9), WithMaxWidth(24), WithWorkers(w), WithTrace())
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, fmt.Sprintf("spec %d traced workers=%d", si, w), base, traced)
			if traced.Phases == nil {
				t.Fatalf("spec %d workers=%d: traced result has no phases", si, w)
			}
		}
	}

	// Batches: tracing must not perturb dedup or the shared solve.
	queries := []Query{
		{Terminals: []int{0, 13, 26, 39}},
		{Terminals: []int{0, 13, 26, 39}}, // duplicate → plan-level dedup
		{Terminals: []int{5, 20, 35}},
		{Mode: ModeConditional, Terminals: []int{0, 26, 39}, Evidence: obs},
	}
	opts := func(w int, extra ...Option) []Option {
		return append([]Option{WithSamples(2000), WithSeed(5), WithMaxWidth(24), WithWorkers(w)}, extra...)
	}
	baseBatch, err := NewSession(g).BatchReliability(queries, opts(1)...)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workerCounts() {
		traced, err := NewSession(g).BatchReliability(queries, opts(w, WithTrace())...)
		if err != nil {
			t.Fatal(err)
		}
		for i := range queries {
			assertSameResult(t, fmt.Sprintf("batch query %d traced workers=%d", i, w), baseBatch[i], traced[i])
			if traced[i].Phases == nil {
				t.Fatalf("batch query %d workers=%d: no phases", i, w)
			}
		}
	}
}

// TestTracePhaseSpans pins the shape of a traced query's breakdown: the
// pipeline phases appear with plausible counts, and — single-threaded, where
// no spans overlap — their summed wall-clock is consistent with the result's
// Duration.
func TestTracePhaseSpans(t *testing.T) {
	g := denseRandomGraph(t, 40, 140, 11)
	res, err := Solve(g, QuerySpec{Terminals: []int{0, 13, 26, 39}},
		WithSamples(4000), WithSeed(9), WithMaxWidth(24), WithWorkers(1), WithTrace())
	if err != nil {
		t.Fatal(err)
	}
	b := res.Phases
	if b == nil {
		t.Fatal("no phase breakdown")
	}
	plan, ok := b.Span("plan")
	if !ok || plan.Duration <= 0 || plan.Count != 1 {
		t.Fatalf("plan span %+v ok=%v, want one positive span", plan, ok)
	}
	if construct, ok := b.Span("construct"); !ok || construct.Count != res.Subproblems {
		t.Fatalf("construct span %+v, want one span per subproblem (%d)", construct, res.Subproblems)
	}
	if _, ok := b.Span("combine"); !ok {
		t.Fatal("no combine span")
	}
	if _, ok := b.Span("condition"); ok {
		t.Fatal("terminal-set query recorded a condition span")
	}

	// Solve-phase spans (plan, construct, sample, combine) are disjoint
	// under one worker and all lie inside the measured Duration; admission,
	// condition and the session index build fall outside it. Allow slack
	// for timer granularity.
	var solveSum time.Duration
	for _, name := range []string{"plan", "construct", "sample", "combine"} {
		if sp, ok := b.Span(name); ok {
			solveSum += sp.Duration
		}
	}
	if solveSum <= 0 {
		t.Fatal("zero solve-phase wall-clock")
	}
	if limit := res.Duration + res.Duration/4 + 2*time.Millisecond; solveSum > limit {
		t.Fatalf("solve-phase sum %v exceeds Duration %v (+slack %v)", solveSum, res.Duration, limit)
	}

	// A conditional spec additionally records conditioning and an
	// on-the-fly index build.
	cond, err := Solve(g, QuerySpec{
		Mode: ModeConditional, Terminals: []int{0, 26, 39},
		Evidence: []EdgeObservation{{Edge: 3, Up: true}},
	}, WithSamples(2000), WithSeed(9), WithMaxWidth(24), WithWorkers(1), WithTrace())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cond.Phases.Span("condition"); !ok {
		t.Fatal("conditional query recorded no condition span")
	}
	if _, ok := cond.Phases.Span("index"); !ok {
		t.Fatal("conditional query recorded no index span")
	}
}

// TestTraceRoundsContract pins when a trace reports sampling rounds: a
// default sampled solve draws its whole schedule in exactly one round, and
// a solve that samples nothing — Exact, or a Reliability query the S2BDD
// resolves exactly — reports no rounds at all.
func TestTraceRoundsContract(t *testing.T) {
	g := denseRandomGraph(t, 40, 140, 11)
	res, err := Reliability(g, []int{0, 13, 26, 39},
		WithSamples(4000), WithSeed(9), WithMaxWidth(24), WithTrace())
	if err != nil {
		t.Fatal(err)
	}
	if res.Exact || res.SamplesUsed == 0 {
		t.Fatalf("workload not sampled: exact=%v used=%d", res.Exact, res.SamplesUsed)
	}
	if b := res.Phases; b.Rounds != 1 || b.SamplesDrawn != int64(res.SamplesUsed) {
		t.Fatalf("sampled solve traced rounds=%d drawn=%d, want 1 round drawing all %d",
			b.Rounds, b.SamplesDrawn, res.SamplesUsed)
	}

	ring := NewGraph(6)
	for v := 0; v < 6; v++ {
		if err := ring.AddEdge(v, (v+1)%6, 0.8); err != nil {
			t.Fatal(err)
		}
	}
	for name, solve := range map[string]func(*Graph, []int, ...Option) (*Result, error){
		"exact": Exact, "reliability": Reliability,
	} {
		res, err := solve(ring, []int{0, 3}, WithSeed(9), WithTrace())
		if err != nil {
			t.Fatal(err)
		}
		if !res.Exact || res.Subproblems == 0 {
			t.Fatalf("%s: ring query not solved exactly by the S2BDD: exact=%v subproblems=%d",
				name, res.Exact, res.Subproblems)
		}
		if b := res.Phases; b.Rounds != 0 || b.SamplesDrawn != 0 {
			t.Fatalf("%s: exact solve traced rounds=%d drawn=%d, want none", name, b.Rounds, b.SamplesDrawn)
		}
	}
}

// TestTraceBatchAnnotations pins the dedup and cache effectiveness counters
// a traced batch carries.
func TestTraceBatchAnnotations(t *testing.T) {
	g := denseRandomGraph(t, 40, 140, 11)
	sess := NewSession(g)
	queries := []Query{
		{Terminals: []int{0, 13, 26, 39}},
		{Terminals: []int{13, 0, 39, 26}}, // same canonical spec
		{Terminals: []int{5, 20, 35}},
	}
	opts := []Option{WithSamples(2000), WithSeed(5), WithMaxWidth(24), WithTrace()}
	results, err := sess.BatchReliability(queries, opts...)
	if err != nil {
		t.Fatal(err)
	}
	b := results[0].Phases
	if b == nil {
		t.Fatal("no phases on batch result")
	}
	if b.QueriesPlanned != 2 || b.QueriesDeduped != 1 {
		t.Fatalf("planned/deduped = %d/%d, want 2/1", b.QueriesPlanned, b.QueriesDeduped)
	}
	if b.Subproblems < b.SubproblemsDeduped || b.Subproblems <= 0 {
		t.Fatalf("subproblems %d deduped %d implausible", b.Subproblems, b.SubproblemsDeduped)
	}
	if b.CacheMisses <= 0 || b.CacheHits != 0 {
		t.Fatalf("first batch cache hits/misses = %d/%d, want 0/>0", b.CacheHits, b.CacheMisses)
	}
	// Batch results share one batch-scoped breakdown, but never storage.
	if results[0].Phases == results[1].Phases {
		t.Fatal("batch results alias one PhaseBreakdown")
	}
	if results[0].Phases.QueriesPlanned != results[1].Phases.QueriesPlanned {
		t.Fatal("batch results disagree on the breakdown")
	}

	// The repeat batch is served from the session cache.
	again, err := sess.BatchReliability(queries, opts...)
	if err != nil {
		t.Fatal(err)
	}
	b2 := again[0].Phases
	if b2.CacheHits <= 0 || b2.CacheMisses != 0 {
		t.Fatalf("repeat batch cache hits/misses = %d/%d, want >0/0", b2.CacheHits, b2.CacheMisses)
	}
	for i := range queries {
		assertSameResult(t, fmt.Sprintf("cached batch query %d", i), results[i], again[i])
	}
}

// TestTraceConcurrentBatches stresses concurrent traced solves sharing one
// session under -race: overlapping batches and single queries, every result
// checked against a sequential baseline.
func TestTraceConcurrentBatches(t *testing.T) {
	g := denseRandomGraph(t, 36, 120, 7)
	terms := [][]int{{0, 18, 35}, {3, 12, 30}, {0, 18, 35}, {7, 22}}
	opts := []Option{WithSamples(1500), WithSeed(3), WithMaxWidth(24), WithTrace()}

	baseline := make([]*Result, len(terms))
	baseSess := NewSession(g)
	for i, ts := range terms {
		r, err := baseSess.Reliability(ts, opts...)
		if err != nil {
			t.Fatal(err)
		}
		baseline[i] = r
	}

	sess := NewSession(g)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for round := 0; round < 4; round++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			queries := make([]Query, len(terms))
			for i, ts := range terms {
				queries[i] = Query{Terminals: ts}
			}
			results, err := sess.BatchReliability(queries, opts...)
			if err != nil {
				errs <- err
				return
			}
			for i := range terms {
				if results[i].Reliability != baseline[i].Reliability {
					errs <- fmt.Errorf("concurrent batch query %d: %v != %v",
						i, results[i].Reliability, baseline[i].Reliability)
					return
				}
			}
		}()
		go func(i int) {
			defer wg.Done()
			r, err := sess.Reliability(terms[i%len(terms)], opts...)
			if err != nil {
				errs <- err
				return
			}
			if r.Reliability != baseline[i%len(terms)].Reliability {
				errs <- fmt.Errorf("concurrent single query %d: %v != %v",
					i%len(terms), r.Reliability, baseline[i%len(terms)].Reliability)
			}
		}(round)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
