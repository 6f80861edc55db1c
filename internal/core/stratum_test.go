package core_test

import (
	"context"
	"testing"

	"netrel/datasets"
	"netrel/internal/core"
)

// sampleQueries returns the subproblems of the first n queries of
// relbench's solve-sample workload at seed 1: 10 random terminals on the
// Hit-d protein network (small scale, generator seed 1), where the bounds
// stay loose and completion draws do nearly all the work.
func sampleQueries(tb testing.TB, n, samples, width int) [][]subproblem {
	tb.Helper()
	g, err := datasets.Generate("Hit-d", datasets.Small, 1)
	if err != nil {
		tb.Fatal(err)
	}
	var out [][]subproblem
	for i := uint64(1); i <= uint64(n); i++ {
		ts, err := datasets.RandomTerminals(g, 10, 1_000_003+i)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, subproblems(tb, g, ts, samples, width))
	}
	return out
}

// drawAll draws s's whole schedule and returns its result.
func drawAll(tb testing.TB, s *core.Sampler) core.Result {
	tb.Helper()
	if _, err := s.Resume(context.Background(), s.Remaining()); err != nil {
		tb.Fatal(err)
	}
	res, err := s.Result()
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// TestStratumFlipsNearRoot pins the coins a stratum draw evaluates. On the
// first three solve-sample queries at s = 2,000 and w = 10⁴, the S2BDD's
// draws may flip at most 1.5× the coins per draw of the root sampler on
// the same subproblems. A stratum draw that searched out of its flagged
// components before its unseen terminals flipped 3.0× as many.
func TestStratumFlipsNearRoot(t *testing.T) {
	const maxRatio = 1.5
	ctx := context.Background()
	var flips, draws, rootFlips, rootDraws int64
	for _, subs := range sampleQueries(t, 3, 2_000, 10_000) {
		for _, q := range subs {
			s, err := core.NewSampler(ctx, q.g, q.ts, q.cfg)
			if err != nil {
				t.Fatal(err)
			}
			res := drawAll(t, s)
			flips += res.Flips
			draws += int64(res.SamplesUsed)
			root, err := core.NewRootSampler(ctx, q.g, q.ts, q.cfg)
			if err != nil {
				t.Fatal(err)
			}
			res = drawAll(t, root)
			rootFlips += res.Flips
			rootDraws += int64(res.SamplesUsed)
		}
	}
	if draws == 0 || rootDraws == 0 {
		t.Fatalf("workload draws nothing: %d S2BDD draws, %d root draws", draws, rootDraws)
	}
	perDraw := float64(flips) / float64(draws)
	rootPerDraw := float64(rootFlips) / float64(rootDraws)
	t.Logf("S2BDD %.1f flips/draw over %d draws, root %.1f over %d: ratio %.2f",
		perDraw, draws, rootPerDraw, rootDraws, perDraw/rootPerDraw)
	if perDraw > maxRatio*rootPerDraw {
		t.Fatalf("a stratum draw flips %.1f coins, %.2f× the root sampler's %.1f; want at most %.1f×",
			perDraw, perDraw/rootPerDraw, rootPerDraw, maxRatio)
	}
}

// BenchmarkStratumDraws times Sampler.Resume over the strata of the first
// solve-sample query's largest subproblem at s = w = 10⁴, relbench's
// settings, on one worker: construction flushes a wide layer into one
// stratum, and drawing it is nearly all of the query's time. Construction
// runs outside the timer. flips/draw is Result.Flips per draw made.
func BenchmarkStratumDraws(b *testing.B) {
	q := sampleQueries(b, 1, 10_000, 10_000)[0][0]
	ctx := context.Background()
	var flips, draws int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := core.NewSampler(ctx, q.g, q.ts, q.cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res := drawAll(b, s)
		if !res.Flushed || res.Strata == 0 {
			b.Fatalf("no flushed stratum: %d strata, flushed %v", res.Strata, res.Flushed)
		}
		flips += res.Flips
		draws += int64(res.SamplesUsed)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(draws), "ns/draw")
	b.ReportMetric(float64(flips)/float64(draws), "flips/draw")
}
