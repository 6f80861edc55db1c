package netrel

// Anytime adaptive sampling (PR 8): round splits must be invisible in the
// results (WithSampleRounds with the default target width is bit-identical
// to the default single round for any round count, worker count, and mode),
// WithTargetWidth must save samples without leaving the proven bounds,
// progress streams must tighten monotonically, and a cancellation at a
// round boundary must leave the session cache empty with a bit-identical
// retry.

import (
	"context"
	"errors"
	"testing"
)

func anytimeWorkload(t *testing.T) (*Graph, []int, []Option) {
	t.Helper()
	g := denseRandomGraph(t, 40, 140, 11)
	ts := []int{0, 13, 26, 39}
	opts := []Option{WithSamples(4000), WithSeed(42), WithMaxWidth(16)}
	return g, ts, opts
}

func TestAdaptiveRoundsBitIdentical(t *testing.T) {
	g, ts, opts := anytimeWorkload(t)
	specs := []QuerySpec{
		{Terminals: ts},
		{Mode: ModeConditional, Terminals: ts,
			Evidence: []EdgeObservation{{Edge: 0, Up: true}, {Edge: 7, Up: false}}},
	}
	for _, est := range []Estimator{EstimatorMonteCarlo, EstimatorHorvitzThompson} {
		base := append(append([]Option{}, opts...), WithEstimator(est))
		for si, spec := range specs {
			sess := NewSession(g)
			sess.SetCacheCapacity(0)
			want, err := sess.Solve(spec, base...)
			if err != nil {
				t.Fatal(err)
			}
			if want.Exact || want.SamplesUsed == 0 {
				t.Fatalf("spec %d not exercising the sampling path: %+v", si, want)
			}
			for _, w := range workerCounts() {
				// With WithProgress, rounds = 1 also reports progress at its
				// round boundary; that must not perturb the result either.
				for _, rounds := range []int{1, 2, 3, 7} {
					got, err := sess.Solve(spec, append(append([]Option{}, base...),
						WithWorkers(w), WithSampleRounds(rounds),
						WithProgress(func(Progress) {}))...)
					if err != nil {
						t.Fatalf("est=%v spec=%d workers=%d rounds=%d: %v", est, si, w, rounds, err)
					}
					assertSameResult(t, "adaptive-rounds", want, got)
				}
			}
		}
	}
}

func TestAdaptiveBatchBitIdentical(t *testing.T) {
	g, ts, opts := anytimeWorkload(t)
	queries := []Query{
		{Terminals: ts},
		{Terminals: []int{1, 14, 27}},
		{Terminals: ts}, // duplicate: fan-in 2 on its subproblems
		{Mode: ModeConditional, Terminals: ts,
			Evidence: []EdgeObservation{{Edge: 3, Up: true}}},
	}
	static := NewSession(g)
	static.SetCacheCapacity(0)
	want, err := static.BatchReliability(queries, opts...)
	if err != nil {
		t.Fatal(err)
	}
	adaptive := NewSession(g)
	adaptive.SetCacheCapacity(0)
	got, err := adaptive.BatchReliability(queries, append(append([]Option{}, opts...),
		WithSampleRounds(5), WithProgress(func(Progress) {}))...)
	if err != nil {
		t.Fatal(err)
	}
	for i := range queries {
		assertSameResult(t, "adaptive-batch", want[i], got[i])
	}
}

func TestTargetWidthStopsEarly(t *testing.T) {
	g, ts, opts := anytimeWorkload(t)
	sess := NewSession(g)
	sess.SetCacheCapacity(0)
	full, err := sess.Solve(QuerySpec{Terminals: ts}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	stopped, err := sess.Solve(QuerySpec{Terminals: ts}, append(append([]Option{}, opts...),
		WithSampleRounds(16), WithTargetWidth(full.Upper-full.Lower+0.05))...)
	if err != nil {
		t.Fatal(err)
	}
	if stopped.SamplesUsed >= full.SamplesUsed {
		t.Fatalf("target width saved nothing: %d vs %d draws", stopped.SamplesUsed, full.SamplesUsed)
	}
	if stopped.Lower != full.Lower || stopped.Upper != full.Upper {
		t.Fatalf("early stop moved the proven bounds: [%v,%v] != [%v,%v]",
			stopped.Lower, stopped.Upper, full.Lower, full.Upper)
	}
	if stopped.Reliability < stopped.Lower || stopped.Reliability > stopped.Upper {
		t.Fatalf("early-stopped estimate %v outside [%v,%v]",
			stopped.Reliability, stopped.Lower, stopped.Upper)
	}
	// Early-stopped results must not poison the cache: a follow-up static
	// query has to re-solve and return the full-schedule answer.
	refetched, err := sess.Solve(QuerySpec{Terminals: ts}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "static-after-early-stop", full, refetched)
}

func TestProgressMonotoneTightening(t *testing.T) {
	g, ts, opts := anytimeWorkload(t)
	var updates []Progress
	res, err := Reliability(g, ts, append(append([]Option{}, opts...),
		WithSampleRounds(6), WithProgress(func(p Progress) { updates = append(updates, p) }))...)
	if err != nil {
		t.Fatal(err)
	}
	if len(updates) < 2 {
		t.Fatalf("expected multiple progress updates, got %d", len(updates))
	}
	lo, hi := updates[0].Lower, updates[0].Upper
	for i, p := range updates {
		if p.Lower > p.Upper {
			t.Fatalf("update %d inverted: [%v,%v]", i, p.Lower, p.Upper)
		}
		if p.Lower < lo-1e-12 || p.Upper > hi+1e-12 {
			t.Fatalf("update %d widened: [%v,%v] after [%v,%v]", i, p.Lower, p.Upper, lo, hi)
		}
		lo, hi = p.Lower, p.Upper
	}
	last := updates[len(updates)-1]
	if !last.Done {
		t.Fatal("final progress update not marked Done")
	}
	if res.Reliability < last.Lower-1e-12 || res.Reliability > last.Upper+1e-12 {
		t.Fatalf("final estimate %v outside streamed bounds [%v,%v]",
			res.Reliability, last.Lower, last.Upper)
	}
}

func TestCancellationMidRoundCachesNothing(t *testing.T) {
	g, ts, opts := anytimeWorkload(t)
	uninterrupted, err := Reliability(g, ts, opts...)
	if err != nil {
		t.Fatal(err)
	}

	sess := NewSession(g)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Cancel from the round-boundary progress callback: the next round's
	// resume must abort, and nothing drawn so far may reach the cache.
	_, err = sess.SolveContext(ctx, QuerySpec{Terminals: ts}, append(append([]Option{}, opts...),
		WithSampleRounds(8), WithProgress(func(p Progress) {
			if p.Round >= 2 {
				cancel()
			}
		}))...)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-round cancellation returned %v", err)
	}
	if st := sess.CacheStats(); st.Entries != 0 {
		t.Fatalf("cancelled round cached %d subproblem results", st.Entries)
	}

	// Retry on the same session — static and adaptive — must be
	// bit-identical to the uninterrupted run, and only now warm the cache.
	retry, err := sess.Solve(QuerySpec{Terminals: ts}, append(append([]Option{}, opts...),
		WithSampleRounds(8), WithProgress(func(Progress) {}))...)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "round-cancelled-then-retried", uninterrupted, retry)
	if st := sess.CacheStats(); st.Entries == 0 {
		t.Fatal("successful retry cached nothing")
	}
}
