package netrel_test

import (
	"testing"
	"time"

	"netrel"
	"netrel/datasets"
)

// minSolveCover is the share of a traced query's Duration that its solve
// spans must account for. On the Hit-d query below they cover 0.997–1.000
// of it. Leaving the subproblems' edge orders outside the construct span
// drops the share to 0.78–0.85, and leaving frontier planning out too
// drops it to 0.12–0.16.
const minSolveCover = 0.95

// TestTraceSpansCoverSolve checks that a traced solve's time is on its
// spans: an uncached single-worker query on the Hit-d protein network (a
// frontier a few hundred vertices wide) spends nearly all of its Duration
// in plan, construct, sample and combine, which are disjoint on one worker.
func TestTraceSpansCoverSolve(t *testing.T) {
	g, err := datasets.Generate("Hit-d", datasets.Small, 1)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := datasets.RandomTerminals(g, 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := netrel.Reliability(g, ts, netrel.WithSamples(200), netrel.WithMaxWidth(10_000),
		netrel.WithWorkers(1), netrel.WithSeed(1), netrel.WithTrace())
	if err != nil {
		t.Fatal(err)
	}
	var covered time.Duration
	for _, name := range []string{"plan", "construct", "sample", "combine"} {
		if sp, ok := res.Phases.Span(name); ok {
			covered += sp.Duration
		}
	}
	share := float64(covered) / float64(res.Duration)
	t.Logf("spans cover %v of Duration %v (%.3f): %+v", covered, res.Duration, share, res.Phases.Spans)
	if share < minSolveCover {
		t.Fatalf("solve spans cover %.3f of Duration, want at least %.2f", share, minSolveCover)
	}
}
