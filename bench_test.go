// Benchmarks regenerating the paper's evaluation, one benchmark family per
// table/figure, plus ablation benches for the design choices the options
// switch (edge ordering, the deletion heuristic, early termination,
// sample reduction, the extension). Dataset sizes use the Small scale so
// the full suite runs in minutes; `cmd/experiments -scale medium|full`
// reproduces larger runs.
//
// The parallel-scaling families are run with
//
//	go test -bench 'BenchmarkParallel' -benchtime 3x .
//
// BenchmarkParallelS2BDD measures the stratified-sampling hot path at
// growing worker counts (workers=1 is the sequential baseline; identical
// results, different wall-clock) and BenchmarkParallelSampling does the
// same for the Monte Carlo baseline.
package netrel_test

import (
	"fmt"
	"sync"
	"testing"

	"netrel"
	"netrel/datasets"
)

// graphCache memoizes generated datasets across benchmarks.
var graphCache sync.Map

func dataset(b *testing.B, abbr string) *netrel.Graph {
	b.Helper()
	if g, ok := graphCache.Load(abbr); ok {
		return g.(*netrel.Graph)
	}
	g, err := datasets.Generate(abbr, datasets.Small, 42)
	if err != nil {
		b.Fatal(err)
	}
	graphCache.Store(abbr, g)
	return g
}

func terminals(b *testing.B, g *netrel.Graph, k int, seed uint64) []int {
	b.Helper()
	ts, err := datasets.RandomTerminals(g, k, seed)
	if err != nil {
		b.Fatal(err)
	}
	return ts
}

// BenchmarkTable2Datasets measures dataset generation (Table 2's inputs).
func BenchmarkTable2Datasets(b *testing.B) {
	for _, info := range datasets.Catalog() {
		b.Run(info.Abbr, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := datasets.Generate(info.Abbr, datasets.Small, uint64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure3 regenerates Figure 3's cells: response time per dataset
// and method at k=10 (the middle panel). The BDD baseline is expected to
// fail on its node budget — that failure is the measured datum.
func BenchmarkFigure3(b *testing.B) {
	for _, ds := range []string{"DBLP1", "DBLP2", "Tokyo", "NYC", "Hit-d"} {
		g := dataset(b, ds)
		ts := terminals(b, g, 10, 7)
		b.Run(ds+"/Pro(MC)", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := netrel.Reliability(g, ts,
					netrel.WithSamples(1000), netrel.WithSeed(uint64(i))); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(ds+"/Pro(MC)-noext", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := netrel.Reliability(g, ts,
					netrel.WithSamples(1000), netrel.WithSeed(uint64(i)),
					netrel.WithoutExtension()); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(ds+"/Sampling(MC)", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := netrel.MonteCarlo(g, ts,
					netrel.WithSamples(1000), netrel.WithSeed(uint64(i))); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(ds+"/BDD-DNF", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := netrel.BDDExact(g, ts,
					netrel.WithBDDNodeBudget(100_000)); err == nil {
					b.Fatal("BDD baseline unexpectedly finished on a large dataset")
				}
			}
		})
	}
}

// BenchmarkFigure4Samples regenerates Figure 4's x-axis: the paper's
// approach at growing sample budgets on the road network (its
// best-case dataset).
func BenchmarkFigure4Samples(b *testing.B) {
	g := dataset(b, "Tokyo")
	ts := terminals(b, g, 10, 77)
	for _, s := range []int{100, 1_000, 10_000} {
		b.Run(fmt.Sprintf("s=%d", s), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := netrel.Reliability(g, ts,
					netrel.WithSamples(s), netrel.WithSeed(uint64(i))); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("sampling/s=%d", s), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := netrel.MonteCarlo(g, ts,
					netrel.WithSamples(s), netrel.WithSeed(uint64(i))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure5Width regenerates Figure 5's x-axis: the maximum S2BDD
// width. -benchmem reports the allocation side of Figure 5(a).
func BenchmarkFigure5Width(b *testing.B) {
	g := dataset(b, "Tokyo")
	ts := terminals(b, g, 10, 99)
	for _, w := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := netrel.Reliability(g, ts,
					netrel.WithSamples(1000), netrel.WithMaxWidth(w),
					netrel.WithSeed(uint64(i))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable3Karate regenerates one accuracy cell of Table 3: a Pro and
// a Sampling approximation on the Karate graph at k=10.
func BenchmarkTable3Karate(b *testing.B) {
	g := dataset(b, "Karate")
	ts := terminals(b, g, 10, 5)
	b.Run("Pro(MC)", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := netrel.Reliability(g, ts,
				netrel.WithSamples(10_000), netrel.WithSeed(uint64(i))); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Pro(HT)", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := netrel.Reliability(g, ts,
				netrel.WithSamples(10_000), netrel.WithSeed(uint64(i)),
				netrel.WithEstimator(netrel.EstimatorHorvitzThompson)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Sampling(MC)", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := netrel.MonteCarlo(g, ts,
				netrel.WithSamples(10_000), netrel.WithSeed(uint64(i))); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := netrel.Exact(g, ts, netrel.WithMaxWidth(1<<22)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTable4AmRv regenerates Table 4's headline: the paper's approach
// solves the American-Revolution graph exactly.
func BenchmarkTable4AmRv(b *testing.B) {
	g := dataset(b, "Am-Rv")
	ts := terminals(b, g, 10, 5)
	b.Run("Pro(MC)", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := netrel.Reliability(g, ts,
				netrel.WithSamples(10_000), netrel.WithSeed(uint64(i)))
			if err != nil {
				b.Fatal(err)
			}
			if !res.Exact {
				b.Fatal("Pro must be exact on Am-Rv")
			}
		}
	})
	b.Run("Sampling(MC)", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := netrel.MonteCarlo(g, ts,
				netrel.WithSamples(10_000), netrel.WithSeed(uint64(i))); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTable5Preprocess regenerates Table 5: the extension technique's
// preprocessing cost per dataset.
func BenchmarkTable5Preprocess(b *testing.B) {
	for _, info := range datasets.Catalog() {
		g := dataset(b, info.Abbr)
		k := 10
		if g.N() < 100 {
			k = 5
		}
		ts := terminals(b, g, k, 3)
		b.Run(info.Abbr, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// Width 2 + immediate flush isolates preprocessing cost.
				if _, err := netrel.Reliability(g, ts,
					netrel.WithSamples(1), netrel.WithMaxWidth(2),
					netrel.WithStall(2, 2), netrel.WithSeed(uint64(i))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationOrdering compares edge-ordering strategies (the frontier
// method's key tuning knob; not varied in the paper, which fixes one
// "predefined order").
func BenchmarkAblationOrdering(b *testing.B) {
	g := dataset(b, "Tokyo")
	ts := terminals(b, g, 10, 13)
	for name, ord := range map[string]netrel.Ordering{
		"bfs":     netrel.OrderBFS,
		"dfs":     netrel.OrderDFS,
		"degree":  netrel.OrderDegree,
		"natural": netrel.OrderNatural,
	} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := netrel.Reliability(g, ts,
					netrel.WithSamples(1000), netrel.WithOrdering(ord),
					netrel.WithSeed(uint64(i))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationMechanisms disables one S2BDD mechanism at a time.
func BenchmarkAblationMechanisms(b *testing.B) {
	g := dataset(b, "Tokyo")
	ts := terminals(b, g, 10, 17)
	variants := map[string][]netrel.Option{
		"full":          nil,
		"no-heuristic":  {netrel.WithoutHeuristic()},
		"no-early-term": {netrel.WithoutEarlyTermination()},
		"no-reduction":  {netrel.WithoutSampleReduction()},
		"no-extension":  {netrel.WithoutExtension()},
	}
	for name, extra := range variants {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := append([]netrel.Option{
					netrel.WithSamples(1000), netrel.WithSeed(uint64(i)),
				}, extra...)
				if _, err := netrel.Reliability(g, ts, opts...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelS2BDD measures the parallel stratified-sampling phase on
// a large stratum workload: a tiny width on a road network deletes nodes at
// nearly every layer, and with Theorem 1 reduction disabled every stratum
// keeps its full draw allocation, so almost all time is completion draws —
// the part WithWorkers now spreads across cores. workers=1 is the
// sequential baseline; every row computes bit-identical estimates.
func BenchmarkParallelS2BDD(b *testing.B) {
	g := dataset(b, "Tokyo")
	ts := terminals(b, g, 10, 23)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := netrel.Reliability(g, ts,
					netrel.WithSamples(20_000), netrel.WithMaxWidth(64),
					netrel.WithoutSampleReduction(),
					netrel.WithWorkers(workers), netrel.WithSeed(7)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelConstruction measures the sharded S2BDD construction
// phase (PR 4): a bounds-only run (samples 0) on the dense protein network
// expands every layer at the width cap with no sampling at all, so the
// whole run is layer expansion, which WithWorkers spreads across cores
// (192-wide layers split into 3 chunks of 64 parents).
// workers=1 is the sequential schedule; every row computes bit-identical
// bounds. Run with -benchtime 1x: one op sweeps all ~12k layers.
func BenchmarkParallelConstruction(b *testing.B) {
	g := dataset(b, "Hit-d")
	ts := terminals(b, g, 10, 31)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := netrel.Reliability(g, ts,
					netrel.WithSamples(0), netrel.WithMaxWidth(192),
					netrel.WithWorkers(workers), netrel.WithSeed(7)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelSampling measures the Monte Carlo baseline's worker
// scaling.
func BenchmarkParallelSampling(b *testing.B) {
	g := dataset(b, "NYC")
	ts := terminals(b, g, 10, 19)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := netrel.MonteCarlo(g, ts,
					netrel.WithSamples(20_000), netrel.WithWorkers(workers),
					netrel.WithSeed(uint64(i))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMonteCarlo times the plain sampling baseline, MC and HT, on the
// Hit-d protein network with 10 terminals and s = 10⁴ on one worker: a
// graph where possible-world draws do all the work. Allocations include
// the per-query edge stream, whose step table costs 32 B per edge.
func BenchmarkMonteCarlo(b *testing.B) {
	g := dataset(b, "Hit-d")
	ts := terminals(b, g, 10, 7)
	for _, c := range []struct {
		name string
		est  netrel.Estimator
	}{{"MC", netrel.EstimatorMonteCarlo}, {"HT", netrel.EstimatorHorvitzThompson}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := netrel.MonteCarlo(g, ts,
					netrel.WithSamples(10_000), netrel.WithWorkers(1),
					netrel.WithEstimator(c.est), netrel.WithSeed(uint64(i))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
