// The paper's plain MC and HT baselines are core's root sampler, run on
// this package's chunk schedule and seed streams. The baseline tests below
// drive it the way netrel.MonteCarlo does.
package sampling_test

import (
	"context"
	"math"
	"math/rand/v2"
	"runtime"
	"testing"

	"netrel/internal/core"
	"netrel/internal/estimator"
	"netrel/internal/exact"
	"netrel/internal/sampling"
	"netrel/internal/ugraph"
)

func triangle(t *testing.T) (*ugraph.Graph, ugraph.Terminals) {
	t.Helper()
	g, err := ugraph.FromEdges(3, []ugraph.Edge{
		{U: 0, V: 1, P: 0.5}, {U: 1, V: 2, P: 0.5}, {U: 0, V: 2, P: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts, err := ugraph.NewTerminals(g, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	return g, ts
}

// baseline draws every scheduled sample of a root sampler and returns its
// answer.
func baseline(g *ugraph.Graph, ts ugraph.Terminals, cfg core.Config) (core.Result, error) {
	ctx := context.Background()
	s, err := core.NewRootSampler(ctx, g, ts, cfg)
	if err != nil {
		return core.Result{}, err
	}
	if _, err := s.Resume(ctx, s.Remaining()); err != nil {
		return core.Result{}, err
	}
	return s.Result()
}

func mustBaseline(t *testing.T, g *ugraph.Graph, ts ugraph.Terminals, cfg core.Config) core.Result {
	t.Helper()
	res, err := baseline(g, ts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestMCConvergesToExact(t *testing.T) {
	// Triangle with p = 0.5 everywhere, terminals {0,1}: connected unless
	// the direct edge is absent and at least one of the other two is.
	// R = 0.5 + 0.5·0.25 = 0.625.
	g, ts := triangle(t)
	res := mustBaseline(t, g, ts, core.Config{Samples: 400000, Seed: 1})
	if math.Abs(res.Estimate-0.625) > 0.005 {
		t.Fatalf("MC estimate %v, want 0.625±0.005", res.Estimate)
	}
	if res.SamplesUsed != 400000 || res.Exact || res.Lower != 0 || res.Upper != 1 {
		t.Fatalf("used %d, exact %v, bounds [%v, %v]", res.SamplesUsed, res.Exact, res.Lower, res.Upper)
	}
	if res.Variance <= 0 || res.Variance > 1 {
		t.Fatalf("variance = %v", res.Variance)
	}
}

func TestHTConvergesToExact(t *testing.T) {
	g, ts := triangle(t)
	res := mustBaseline(t, g, ts, core.Config{Samples: 400000, Seed: 2, Estimator: estimator.HorvitzThompson})
	// HT with replacement on a graph with few worlds has higher bias at
	// finite s; the paper observes it is slightly worse than MC here.
	if math.Abs(res.Estimate-0.625) > 0.05 {
		t.Fatalf("HT estimate %v, want 0.625±0.05", res.Estimate)
	}
}

func TestDeterministicAcrossRunsSameWorkers(t *testing.T) {
	g, ts := triangle(t)
	for _, kind := range []estimator.Kind{estimator.MonteCarlo, estimator.HorvitzThompson} {
		cfg := core.Config{Samples: 10000, Seed: 7, Workers: 4, Estimator: kind}
		a, b := mustBaseline(t, g, ts, cfg), mustBaseline(t, g, ts, cfg)
		if a.Estimate != b.Estimate || a.Variance != b.Variance {
			t.Fatalf("%v nondeterministic: %+v vs %+v", kind, a, b)
		}
	}
}

func TestSeedChangesStream(t *testing.T) {
	g, ts := triangle(t)
	a := mustBaseline(t, g, ts, core.Config{Samples: 10000, Seed: 1, Workers: 1})
	b := mustBaseline(t, g, ts, core.Config{Samples: 10000, Seed: 2, Workers: 1})
	if a.Estimate == b.Estimate {
		t.Fatalf("seeds 1 and 2 give the same estimate %v", a.Estimate)
	}
}

func TestParallelMatchesAccuracy(t *testing.T) {
	g, ts := triangle(t)
	for _, w := range []int{1, 2, 8} {
		res := mustBaseline(t, g, ts, core.Config{Samples: 200000, Seed: 5, Workers: w})
		if math.Abs(res.Estimate-0.625) > 0.01 {
			t.Fatalf("workers=%d: estimate %v", w, res.Estimate)
		}
	}
}

func TestErrors(t *testing.T) {
	g, ts := triangle(t)
	for _, s := range []int{0, -5} {
		if _, err := core.NewRootSampler(context.Background(), g, ts, core.Config{Samples: s}); err == nil {
			t.Errorf("%d samples accepted", s)
		}
	}
}

func TestSingleTerminalShortCircuit(t *testing.T) {
	g, _ := triangle(t)
	ts, _ := ugraph.NewTerminals(g, []int{2})
	s, err := core.NewRootSampler(context.Background(), g, ts, core.Config{Samples: 10})
	if err != nil {
		t.Fatal(err)
	}
	if s.Remaining() != 0 {
		t.Fatalf("k=1 schedules %d draws", s.Remaining())
	}
	res, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate != 1 {
		t.Fatalf("k=1 estimate = %v", res.Estimate)
	}
}

func TestMoreWorkersThanSamples(t *testing.T) {
	g, ts := triangle(t)
	res := mustBaseline(t, g, ts, core.Config{Samples: 3, Workers: 16})
	if res.SamplesUsed != 3 {
		t.Fatalf("samples = %d", res.SamplesUsed)
	}
}

func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	// The chunked schedule makes the estimate a pure function of
	// (seed, samples): every worker count must produce identical bits.
	g, ts := triangle(t)
	for _, kind := range []estimator.Kind{estimator.MonteCarlo, estimator.HorvitzThompson} {
		base := mustBaseline(t, g, ts, core.Config{Samples: 5000, Seed: 21, Workers: 1, Estimator: kind})
		for _, w := range []int{2, 3, 8, 64} {
			res := mustBaseline(t, g, ts, core.Config{Samples: 5000, Seed: 21, Workers: w, Estimator: kind})
			if res.Estimate != base.Estimate || res.Variance != base.Variance {
				t.Fatalf("%v workers=%d: %v != base %v", kind, w, res.Estimate, base.Estimate)
			}
		}
	}
}

func TestClampWorkers(t *testing.T) {
	cases := []struct{ workers, total, want int }{
		{0, 10, -1}, // -1: GOMAXPROCS-dependent, checked below
		{-3, 10, -1},
		{4, 10, 4},
		{16, 3, 3},
		{16, 0, 16}, // total 0 = unbounded work units
		{1, 1, 1},
	}
	for _, c := range cases {
		got := sampling.ClampWorkers(c.workers, c.total)
		if c.want == -1 {
			if got < 1 || got > max(runtime.GOMAXPROCS(0), c.total) {
				t.Fatalf("ClampWorkers(%d,%d) = %d", c.workers, c.total, got)
			}
			continue
		}
		if got != c.want {
			t.Fatalf("ClampWorkers(%d,%d) = %d, want %d", c.workers, c.total, got, c.want)
		}
	}
}

func TestSeedStreamIsCoordinateSensitive(t *testing.T) {
	a := sampling.SeedStream(1, 2, 3)
	if a != sampling.SeedStream(1, 2, 3) {
		t.Fatal("SeedStream not a pure function")
	}
	for _, b := range []uint64{
		sampling.SeedStream(2, 2, 3), sampling.SeedStream(1, 3, 3), sampling.SeedStream(1, 2, 4), sampling.SeedStream(1, 2),
	} {
		if a == b {
			t.Fatal("SeedStream collision across distinct coordinates")
		}
	}
}

func TestMCUnbiasedOnRandomGraphs(t *testing.T) {
	// Statistical check: the MC estimate must fall within 5σ of the exact
	// reliability on random small graphs.
	r := rand.New(rand.NewPCG(17, 19))
	for trial := 0; trial < 10; trial++ {
		n := 3 + r.IntN(4)
		g := ugraph.New(n)
		for v := 1; v < n; v++ {
			if _, err := g.AddEdge(r.IntN(v), v, 0.2+0.6*r.Float64()); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 4; i++ {
			u, v := r.IntN(n), r.IntN(n)
			if u != v {
				if _, err := g.AddEdge(u, v, 0.2+0.6*r.Float64()); err != nil {
					t.Fatal(err)
				}
			}
		}
		perm := r.Perm(n)
		ts, _ := ugraph.NewTerminals(g, perm[:2])
		want, err := exact.BruteForce(g, ts)
		if err != nil {
			t.Fatal(err)
		}
		const s = 100000
		res := mustBaseline(t, g, ts, core.Config{Samples: s, Seed: uint64(trial)})
		w := want.Float64()
		sigma := math.Sqrt(w*(1-w)/s) + 1e-9
		if math.Abs(res.Estimate-w) > 5*sigma {
			t.Fatalf("trial %d: estimate %v vs exact %v (>5σ=%v)", trial, res.Estimate, w, 5*sigma)
		}
	}
}
