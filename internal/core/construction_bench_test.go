package core_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"netrel"
	"netrel/datasets"
	"netrel/internal/core"
	"netrel/internal/estimator"
	"netrel/internal/order"
	"netrel/internal/preprocess"
	"netrel/internal/sampling"
	"netrel/internal/ugraph"
)

// subproblem is one preprocessed S2BDD input, configured the way the
// solve pipeline configures it: a BFS edge order from the first terminal
// and the per-subproblem seed.
type subproblem struct {
	g   *ugraph.Graph
	ts  ugraph.Terminals
	cfg core.Config
}

// subproblems preprocesses one terminal-set query on g and returns its
// subproblems, largest first, at s = samples and w = width on one worker.
func subproblems(tb testing.TB, g *netrel.Graph, terminals []int, samples, width int) []subproblem {
	tb.Helper()
	edges := g.Edges()
	ue := make([]ugraph.Edge, len(edges))
	for i, e := range edges {
		ue[i] = ugraph.Edge{U: e.U, V: e.V, P: e.P}
	}
	ug, err := ugraph.FromEdges(g.N(), ue)
	if err != nil {
		tb.Fatal(err)
	}
	ts, err := ugraph.NewTerminals(ug, terminals)
	if err != nil {
		tb.Fatal(err)
	}
	prep, err := preprocess.RunContext(context.Background(), ug, ts, preprocess.BuildIndex(ug))
	if err != nil {
		tb.Fatal(err)
	}
	var out []subproblem
	for _, sub := range prep.Subproblems {
		out = append(out, subproblem{g: sub.G, ts: sub.Terminals, cfg: core.Config{
			MaxWidth:  width,
			Samples:   samples,
			Estimator: estimator.MonteCarlo,
			Seed:      sampling.SeedStream(1, sub.Sig.Hi, sub.Sig.Lo),
			Order:     order.Compute(sub.G, order.BFS, sub.Terminals[0]),
			Workers:   1,
		}})
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].g.M() > out[j-1].g.M(); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// tokyoQuery is the largest subproblem of the first 10-terminal Tokyo
// query (small scale, generator seed 1) whose decomposition keeps over
// 500 of the road network's 1,614 edges, drawn as relbench's
// solve-construct draws its queries. Such a query spends nearly all of
// its time in construction.
func tokyoQuery(tb testing.TB) subproblem {
	tb.Helper()
	g, err := datasets.Generate("Tokyo", datasets.Small, 1)
	if err != nil {
		tb.Fatal(err)
	}
	for i := uint64(1); i < 100; i++ {
		ts, err := datasets.RandomTerminals(g, 10, 1_000_003+i)
		if err != nil {
			tb.Fatal(err)
		}
		if subs := subproblems(tb, g, ts, 10_000, 10_000); len(subs) > 0 && subs[0].g.M() > 500 {
			return subs[0]
		}
	}
	tb.Fatal("no Tokyo query reaches a large component")
	return subproblem{}
}

// BenchmarkConstruction times one construct-bound NewSampler: the S2BDD
// of a Tokyo big-component query at s = w = 10⁴, on one worker and on
// two. The serial driver's share (replay, sort) shows only with two.
func BenchmarkConstruction(b *testing.B) {
	q := tokyoQuery(b)
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := q.cfg
			cfg.Workers = workers
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.NewSampler(context.Background(), q.g, q.ts, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestConstructionAllocsBounded guards the flat layer storage: a
// construct-bound NewSampler allocates per layer, per stratum and per
// expansion chunk of its widest layer, never per node. The Tokyo query
// creates about 190,000 nodes; storage owned by each node cost 2.6
// allocations per node created.
func TestConstructionAllocsBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("a 0.5 s construction")
	}
	q := tokyoQuery(t)
	var res core.Result
	allocs := testing.AllocsPerRun(1, func() {
		s, err := core.NewSampler(context.Background(), q.g, q.ts, q.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res, err = s.Result(); err != nil {
			t.Fatal(err)
		}
	})
	chunks := (res.PeakWidth + 63) / 64
	bound := 1024 + 8*(res.LayersProcessed+res.Strata) + 2*chunks
	t.Logf("%v allocations for %d nodes created in %d layers, %d strata, peak width %d (bound %d)",
		allocs, res.NodesCreated, res.LayersProcessed, res.Strata, res.PeakWidth, bound)
	// One allocation per 20 nodes created must break the bound.
	if res.NodesCreated < int64(20*bound) {
		t.Fatalf("workload created only %d nodes; it no longer tells per-node allocation apart", res.NodesCreated)
	}
	if allocs > float64(bound) {
		t.Fatalf("NewSampler made %v allocations, want at most %d", allocs, bound)
	}
}

// TestSmallQueryBytesBounded guards the fixed cost of a construction: a
// 2-terminal query on a 400-vertex road network at the default MaxWidth,
// the shape of netreld's cached reads, allocates no more than the 167,494
// B it took while each node owned its state slices and each construction
// made two string-keyed maps; it takes about 35 KB. Nothing may be sized
// from MaxWidth up front.
func TestSmallQueryBytesBounded(t *testing.T) {
	const maxBytes = 168_000
	g, err := datasets.RoadNetwork(400, 440, 1)
	if err != nil {
		t.Fatal(err)
	}
	var subs []subproblem
	for seed := uint64(1); seed <= 8; seed++ {
		ts, err := datasets.RandomTerminals(g, 2, seed)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, subproblems(t, g, ts, 10_000, 0)...)
	}
	solve := func() {
		for _, q := range subs {
			s, err := core.NewSampler(context.Background(), q.g, q.ts, q.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Resume(context.Background(), s.Remaining()); err != nil {
				t.Fatal(err)
			}
		}
	}
	solve()
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		solve()
	}
	runtime.ReadMemStats(&after)
	perQuery := (after.TotalAlloc - before.TotalAlloc) / (runs * 8)
	t.Logf("%d B per query over %d subproblems", perQuery, len(subs))
	if perQuery > maxBytes {
		t.Fatalf("a 2-terminal query allocates %d B, want at most %d", perQuery, maxBytes)
	}
}
