package core

import (
	"context"
	"errors"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"netrel/internal/estimator"
	"netrel/internal/exact"
	"netrel/internal/frontier"
	"netrel/internal/order"
	"netrel/internal/ugraph"
)

func randConnected(r *rand.Rand, n, extra int) *ugraph.Graph {
	g := ugraph.New(n)
	for v := 1; v < n; v++ {
		if _, err := g.AddEdge(r.IntN(v), v, 0.05+0.9*r.Float64()); err != nil {
			panic(err)
		}
	}
	for i := 0; i < extra; i++ {
		u, v := r.IntN(n), r.IntN(n)
		if u == v {
			continue
		}
		if _, err := g.AddEdge(u, v, 0.05+0.9*r.Float64()); err != nil {
			panic(err)
		}
	}
	return g
}

func randCase(r *rand.Rand) (*ugraph.Graph, ugraph.Terminals) {
	n := 2 + r.IntN(7)
	g := randConnected(r, n, r.IntN(8))
	k := 2 + r.IntN(n-1)
	if k > n {
		k = n
	}
	perm := r.Perm(n)
	ts, err := ugraph.NewTerminals(g, perm[:k])
	if err != nil {
		panic(err)
	}
	return g, ts
}

func bfsOrder(g *ugraph.Graph, ts ugraph.Terminals) []int {
	return order.Compute(g, order.BFS, ts[0])
}

// solve runs a whole S2BDD query: construction, then one Resume that draws
// the entire schedule.
func solve(ctx context.Context, g *ugraph.Graph, ts ugraph.Terminals, cfg Config) (Result, error) {
	smp, err := NewSampler(ctx, g, ts, cfg)
	if err != nil {
		return Result{}, err
	}
	if _, err := smp.Resume(ctx, smp.Remaining()); err != nil {
		return Result{}, err
	}
	return smp.Result()
}

// compute is solve without cancellation.
func compute(g *ugraph.Graph, ts ugraph.Terminals, cfg Config) (Result, error) {
	return solve(context.Background(), g, ts, cfg)
}

func TestExactModeTriangle(t *testing.T) {
	g, _ := ugraph.FromEdges(3, []ugraph.Edge{
		{U: 0, V: 1, P: 0.5}, {U: 1, V: 2, P: 0.5}, {U: 0, V: 2, P: 0.5},
	})
	ts, _ := ugraph.NewTerminals(g, []int{0, 1})
	res, err := compute(g, ts, Config{MaxWidth: 1 << 20, ExactOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact {
		t.Fatal("triangle run must be exact")
	}
	if math.Abs(res.Estimate-0.625) > 1e-12 {
		t.Fatalf("R = %v, want 0.625", res.Estimate)
	}
	if res.Lower != res.Upper {
		t.Fatalf("exact run bounds differ: [%v, %v]", res.Lower, res.Upper)
	}
}

// TestPropertyExactMatchesBruteForce: with unlimited width and no stall the
// S2BDD resolves every world into a sink — the paper's exact regime.
func TestPropertyExactMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 7))
	f := func(_ int) bool {
		g, ts := randCase(r)
		if g.M() > 18 {
			return true
		}
		want, err := exact.BruteForce(g, ts)
		if err != nil {
			return false
		}
		res, err := compute(g, ts, Config{
			MaxWidth: 1 << 20, ExactOnly: true, Order: bfsOrder(g, ts),
		})
		if err != nil {
			t.Log(err)
			return false
		}
		if !res.Exact {
			return false
		}
		if math.Abs(res.Estimate-want.Float64()) > 1e-10 {
			t.Logf("m=%d k=%d: got %v want %v", g.M(), len(ts), res.Estimate, want.Float64())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyBoundsAlwaysValid: with a tiny width forcing deletions, the
// reported bounds must still bracket the exact reliability, and the
// estimate must lie within the bounds.
func TestPropertyBoundsAlwaysValid(t *testing.T) {
	r := rand.New(rand.NewPCG(11, 3))
	f := func(_ int) bool {
		g, ts := randCase(r)
		if g.M() > 16 {
			return true
		}
		want, err := exact.BruteForce(g, ts)
		if err != nil {
			return false
		}
		res, err := compute(g, ts, Config{
			MaxWidth: 2, Samples: 50, Seed: r.Uint64(), Order: bfsOrder(g, ts),
		})
		if err != nil {
			t.Log(err)
			return false
		}
		w := want.Float64()
		if res.Lower > w+1e-9 || res.Upper < w-1e-9 {
			t.Logf("bounds [%v,%v] miss exact %v", res.Lower, res.Upper, w)
			return false
		}
		if res.Estimate < res.Lower-1e-9 || res.Estimate > res.Upper+1e-9 {
			t.Logf("estimate %v outside [%v,%v]", res.Estimate, res.Lower, res.Upper)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestUnbiasedUnderDeletion: the sampled estimator's mean over many seeds
// must converge to the exact reliability even with heavy deletion.
func TestUnbiasedUnderDeletion(t *testing.T) {
	r := rand.New(rand.NewPCG(13, 17))
	g := randConnected(r, 8, 8)
	perm := r.Perm(8)
	ts, _ := ugraph.NewTerminals(g, perm[:3])
	want, err := exact.BruteForce(g, ts)
	if err != nil {
		t.Fatal(err)
	}
	w := want.Float64()
	const runs = 300
	sum := 0.0
	ord := bfsOrder(g, ts)
	for i := 0; i < runs; i++ {
		res, err := compute(g, ts, Config{
			MaxWidth: 2, Samples: 60, Seed: uint64(i), Order: ord,
		})
		if err != nil {
			t.Fatal(err)
		}
		sum += res.Estimate
	}
	mean := sum / runs
	// Allow 4σ of the mean of `runs` clamped estimates; σ per run bounded
	// by half the unknown band, conservatively 0.5.
	tol := 4 * 0.5 / math.Sqrt(runs)
	if math.Abs(mean-w) > tol {
		t.Fatalf("mean estimate %v vs exact %v (tol %v)", mean, w, tol)
	}
}

func TestHTEstimatorPath(t *testing.T) {
	r := rand.New(rand.NewPCG(23, 29))
	g := randConnected(r, 8, 6)
	ts, _ := ugraph.NewTerminals(g, []int{0, 4, 7})
	want, err := exact.BruteForce(g, ts)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 200
	sum := 0.0
	ord := bfsOrder(g, ts)
	for i := 0; i < runs; i++ {
		res, err := compute(g, ts, Config{
			MaxWidth: 2, Samples: 80, Seed: uint64(i),
			Estimator: estimator.HorvitzThompson, Order: ord,
		})
		if err != nil {
			t.Fatal(err)
		}
		sum += res.Estimate
	}
	mean := sum / runs
	if math.Abs(mean-want.Float64()) > 0.15 {
		t.Fatalf("HT mean %v vs exact %v", mean, want.Float64())
	}
}

func TestExactOnlyErrorsOnOverflow(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 1))
	g := randConnected(r, 20, 30)
	ts, _ := ugraph.NewTerminals(g, []int{0, 10, 19})
	_, err := compute(g, ts, Config{MaxWidth: 2, ExactOnly: true, Order: bfsOrder(g, ts)})
	if !errors.Is(err, ErrNotExact) {
		t.Fatalf("want ErrNotExact, got %v", err)
	}
}

func TestDeterministicBySeed(t *testing.T) {
	r := rand.New(rand.NewPCG(2, 2))
	g := randConnected(r, 10, 10)
	ts, _ := ugraph.NewTerminals(g, []int{0, 5, 9})
	ord := bfsOrder(g, ts)
	cfg := Config{MaxWidth: 4, Samples: 100, Seed: 42, Order: ord}
	a, err := compute(g, ts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := compute(g, ts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Estimate != b.Estimate || a.SamplesUsed != b.SamplesUsed {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestSingleTerminal(t *testing.T) {
	g, _ := ugraph.FromEdges(2, []ugraph.Edge{{U: 0, V: 1, P: 0.5}})
	ts, _ := ugraph.NewTerminals(g, []int{1})
	res, err := compute(g, ts, Config{Samples: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact || res.Estimate != 1 {
		t.Fatalf("k=1: %+v", res)
	}
}

func TestDisconnectedTerminals(t *testing.T) {
	g, _ := ugraph.FromEdges(4, []ugraph.Edge{
		{U: 0, V: 1, P: 0.9}, {U: 2, V: 3, P: 0.9},
	})
	ts, _ := ugraph.NewTerminals(g, []int{0, 2})
	res, err := compute(g, ts, Config{Samples: 10, MaxWidth: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate != 0 || !res.Exact {
		t.Fatalf("disconnected terminals: %+v", res)
	}
}

func TestSampleReductionReported(t *testing.T) {
	// A near-certain graph: bounds tighten fast, s′ ≪ s.
	g := ugraph.New(4)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}, {1, 3}} {
		if _, err := g.AddEdge(e[0], e[1], 0.99); err != nil {
			t.Fatal(err)
		}
	}
	ts, _ := ugraph.NewTerminals(g, []int{0, 2})
	res, err := compute(g, ts, Config{MaxWidth: 2, Samples: 10000, Seed: 3, Order: bfsOrder(g, ts)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Exact {
		t.Skip("run resolved exactly at width 2; nothing to reduce")
	}
	if res.SamplesReduced > res.SamplesRequested {
		t.Fatalf("s' %d > s %d", res.SamplesReduced, res.SamplesRequested)
	}
	if res.SamplesUsed > res.SamplesRequested+res.Strata {
		t.Fatalf("samples used %d exceeds budget %d + strata %d",
			res.SamplesUsed, res.SamplesRequested, res.Strata)
	}
}

func TestAblationsRemainCorrect(t *testing.T) {
	r := rand.New(rand.NewPCG(31, 37))
	g := randConnected(r, 8, 8)
	ts, _ := ugraph.NewTerminals(g, []int{0, 3, 7})
	want, err := exact.BruteForce(g, ts)
	if err != nil {
		t.Fatal(err)
	}
	w := want.Float64()
	ord := bfsOrder(g, ts)
	configs := map[string]Config{
		"no-heuristic":  {MaxWidth: 2, Samples: 100, DisableHeuristic: true},
		"no-early-term": {MaxWidth: 2, Samples: 100, DisableEarlyTermination: true},
		"no-stall":      {MaxWidth: 2, Samples: 100, DisableStall: true},
		"no-reduction":  {MaxWidth: 2, Samples: 100, DisableReduction: true},
	}
	for name, cfg := range configs {
		cfg.Order = ord
		sum := 0.0
		const runs = 120
		for i := 0; i < runs; i++ {
			cfg.Seed = uint64(i)
			res, err := compute(g, ts, cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if res.Lower > w+1e-9 || res.Upper < w-1e-9 {
				t.Fatalf("%s: bounds [%v,%v] miss %v", name, res.Lower, res.Upper, w)
			}
			sum += res.Estimate
		}
		mean := sum / runs
		if math.Abs(mean-w) > 0.2 {
			t.Fatalf("%s: mean %v vs exact %v", name, mean, w)
		}
	}
}

func TestBoundsOnlyMode(t *testing.T) {
	r := rand.New(rand.NewPCG(41, 43))
	g := randConnected(r, 10, 10)
	ts, _ := ugraph.NewTerminals(g, []int{0, 9})
	res, err := compute(g, ts, Config{MaxWidth: 4, Samples: 0, DisableStall: true, Order: bfsOrder(g, ts)})
	if err != nil {
		t.Fatal(err)
	}
	if res.SamplesUsed != 0 {
		t.Fatalf("bounds-only mode drew %d samples", res.SamplesUsed)
	}
	if res.Estimate < res.Lower || res.Estimate > res.Upper {
		t.Fatalf("midpoint estimate %v outside [%v,%v]", res.Estimate, res.Lower, res.Upper)
	}
}

func TestNegativeSamplesRejected(t *testing.T) {
	g, _ := ugraph.FromEdges(2, []ugraph.Edge{{U: 0, V: 1, P: 0.5}})
	ts, _ := ugraph.NewTerminals(g, []int{0, 1})
	if _, err := compute(g, ts, Config{Samples: -1}); err == nil {
		t.Fatal("negative samples accepted")
	}
}

func TestGrid5x5ExactAgainstFactoring(t *testing.T) {
	g := ugraph.New(25)
	id := func(r, c int) int { return r*5 + c }
	for r := 0; r < 5; r++ {
		for c := 0; c < 5; c++ {
			if c+1 < 5 {
				if _, err := g.AddEdge(id(r, c), id(r, c+1), 0.85); err != nil {
					t.Fatal(err)
				}
			}
			if r+1 < 5 {
				if _, err := g.AddEdge(id(r, c), id(r+1, c), 0.85); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	ts, _ := ugraph.NewTerminals(g, []int{0, 24})
	res, err := compute(g, ts, Config{MaxWidth: 1 << 20, ExactOnly: true, Order: bfsOrder(g, ts)})
	if err != nil {
		t.Fatal(err)
	}
	want, err := exact.FactoringContext(context.Background(), g, ts, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Estimate-want.Float64()) > 1e-9 {
		t.Fatalf("S2BDD %v vs factoring %v", res.Estimate, want.Float64())
	}
}

// TestStallFlushActivates: on a long ladder of near-certain edges with
// terminals at its ends, almost no mass resolves before the far end, so
// the stall rule must stop construction. The sample budget exceeds
// 2·MaxWidth·(MaxFrontier+4), which puts the work budget out of reach:
// the flush can only be the stall rule's.
func TestStallFlushActivates(t *testing.T) {
	const rungs, width = 100, 16
	g := ugraph.New(2 * rungs)
	for i := 0; i < rungs; i++ {
		edges := [][2]int{{2 * i, 2*i + 1}}
		if i+1 < rungs {
			edges = append(edges, [2]int{2 * i, 2*i + 2}, [2]int{2*i + 1, 2*i + 3})
		}
		for _, e := range edges {
			if _, err := g.AddEdge(e[0], e[1], 0.9999); err != nil {
				t.Fatal(err)
			}
		}
	}
	ts, _ := ugraph.NewTerminals(g, []int{0, 2*rungs - 1})
	ord := bfsOrder(g, ts)
	plan, err := frontier.NewPlan(g, ts, ord)
	if err != nil {
		t.Fatal(err)
	}
	samples := 2*width*(plan.MaxFrontier()+4) + 1
	res, err := compute(g, ts, Config{MaxWidth: width, Samples: samples, Seed: 1, Order: ord})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Flushed || res.LayersProcessed <= stallWindow || res.LayersProcessed >= g.M() {
		t.Fatalf("expected a stall flush; flushed %v after %d of %d layers",
			res.Flushed, res.LayersProcessed, g.M())
	}
	if res.Estimate < res.Lower || res.Estimate > res.Upper {
		t.Fatalf("estimate %v outside [%v, %v]", res.Estimate, res.Lower, res.Upper)
	}
}

func BenchmarkS2BDDGrid6x6Exact(b *testing.B) {
	g := ugraph.New(36)
	id := func(r, c int) int { return r*6 + c }
	for r := 0; r < 6; r++ {
		for c := 0; c < 6; c++ {
			if c+1 < 6 {
				_, _ = g.AddEdge(id(r, c), id(r, c+1), 0.85)
			}
			if r+1 < 6 {
				_, _ = g.AddEdge(id(r, c), id(r+1, c), 0.85)
			}
		}
	}
	ts, _ := ugraph.NewTerminals(g, []int{0, 35})
	ord := order.Compute(g, order.BFS, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := compute(g, ts, Config{MaxWidth: 1 << 20, ExactOnly: true, Order: ord}); err != nil {
			b.Fatal(err)
		}
	}
}
