package netrel

import (
	"sort"
	"testing"
	"time"
)

// pairedRatio times a and b in n pairs and returns the median over pairs of
// a's time divided by b's. Which side runs first alternates from pair to
// pair: always running one side first hands it the same warm or cold heap
// and caches every time, a bias larger than the 10% margin of the telemetry
// floor. A pair's two runs are adjacent in time, so a slow spell on a shared
// machine scales both; the median then discards the pairs a burst split.
// Pair i passes i to both sides, so a side can vary its input per pair.
func pairedRatio(t *testing.T, n int, a, b func(rep int) error) float64 {
	t.Helper()
	timed := func(f func(int) error, rep int) time.Duration {
		start := time.Now()
		if err := f(rep); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	ratios := make([]float64, n)
	for i := range ratios {
		var da, db time.Duration
		if i%2 == 0 {
			da = timed(a, i)
			db = timed(b, i)
		} else {
			db = timed(b, i)
			da = timed(a, i)
		}
		ratios[i] = float64(da) / float64(db)
	}
	sort.Float64s(ratios)
	return ratios[n/2]
}

// TestSpeedupFloors holds the wall-clock floors of the batch engine, the
// incremental what-if path and observation-only tracing. They are ratios of
// like against like on one machine, so they hold on a loaded 2-core runner;
// the race detector's slowdown is not uniform across the two sides, so the
// test skips under it.
func TestSpeedupFloors(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock measurement")
	}
	if raceDetectorEnabled {
		t.Skip("wall-clock ratios are meaningless under the race detector")
	}
	const pairs = 21

	// 12 end-to-end queries over 8 blocks share the 6 interior blocks, so
	// the batch solves 24 of its 96 subproblem jobs where the sequential
	// baseline (no result cache) solves all 96.
	const blocks, blockSize = 8, 10
	chain := blockChainGraph(t, blocks, blockSize, 29)
	opts := []Option{WithSamples(1000), WithMaxWidth(24), WithoutSampleReduction(), WithSeed(7)}

	t.Run("batch", func(t *testing.T) {
		seq, bat := sequentialAndBatch(chain, endToEndQueries(chain, blocks, blockSize, 12), opts)
		speedup := pairedRatio(t, pairs, func(int) error { return seq() }, func(int) error { return bat() })
		t.Logf("batch speedup %.2f", speedup)
		if speedup < 1.5 {
			t.Fatalf("batch speedup %.2f < 1.5", speedup)
		}
	})

	// One end-to-end query under a delta on one edge of the first block:
	// the rebuild baseline pays a cold session (fresh index, every block
	// solved), the warm session re-solves only the touched block. The
	// probability differs per pair so that block is solved afresh each time.
	t.Run("whatif", func(t *testing.T) {
		spec := QuerySpec{Terminals: []int{0, chain.N() - 1}}
		delta := func(rep int) GraphDelta {
			return GraphDelta{SetProb: []EdgeProbUpdate{{Edge: 0, P: 0.35 + 0.01*float64(rep)}}}
		}
		warm := NewSession(chain)
		if _, err := warm.Solve(spec, opts...); err != nil {
			t.Fatal(err)
		}
		speedup := pairedRatio(t, pairs, func(rep int) error {
			mutated, err := chain.Apply(delta(rep))
			if err != nil {
				return err
			}
			_, err = NewSession(mutated).Solve(spec, opts...)
			return err
		}, func(rep int) error {
			_, err := warm.WhatIf(delta(rep), spec, opts...)
			return err
		})
		t.Logf("what-if speedup %.2f", speedup)
		if speedup < 1.5 {
			t.Fatalf("what-if speedup %.2f < 1.5", speedup)
		}
	})

	// Tracing is observation-only. A solve of about 10 ms keeps timer
	// granularity and scheduler jitter well inside the 10% margin; on a
	// sub-millisecond solve they are not.
	t.Run("telemetry", func(t *testing.T) {
		g := denseRandomGraph(t, 40, 140, 11)
		terms := []int{0, 13, 26, 39}
		solveOpts := []Option{WithSamples(4000), WithSeed(9), WithMaxWidth(24)}
		overhead := pairedRatio(t, pairs, func(int) error {
			_, err := Reliability(g, terms, append(append([]Option{}, solveOpts...), WithTrace())...)
			return err
		}, func(int) error {
			_, err := Reliability(g, terms, solveOpts...)
			return err
		})
		t.Logf("telemetry overhead %.3f", overhead)
		if overhead >= 1.10 {
			t.Fatalf("telemetry overhead %.3f ≥ 1.10", overhead)
		}
	})
}
