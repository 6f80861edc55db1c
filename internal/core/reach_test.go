package core

import (
	"context"
	"errors"
	"math"
	"math/rand/v2"
	"testing"

	"netrel/internal/ugraph"
)

// reachGraph returns a random multigraph of three parts: a random graph on
// vertices [0, big), one edge between big and big+1, and isolated vertices
// from big+2 to n. Probabilities come from (0, 1] with the extremes 1 and
// 2⁻⁶⁰ (the closest a graph gets to p = 0) over-represented, and a quarter
// of the edges have a parallel twin.
func reachGraph(r *rand.Rand) (g *ugraph.Graph, big int) {
	big = 2 + r.IntN(9)
	g = ugraph.New(big + 2 + 1 + r.IntN(3))
	prob := func() float64 {
		switch r.IntN(5) {
		case 0:
			return 1
		case 1:
			return math.Ldexp(1, -60)
		}
		return 1 - r.Float64()
	}
	add := func(u, v int) {
		p := prob()
		for dup := 0; dup < 1+min(1, r.IntN(4)/3); dup++ {
			if _, err := g.AddEdge(u, v, p); err != nil {
				panic(err)
			}
		}
	}
	for i := r.IntN(3 * big); i >= 0; i-- {
		if u, v := r.IntN(big), r.IntN(big); u != v {
			add(u, v)
		}
	}
	add(big, big+1)
	return g, big
}

// TestReachCountsMatchesRootSampler checks that a reach draw is the root
// sampler's world, count for count: for every vertex v, ReachCounts on 1, 2
// or 5 workers counts exactly the Monte Carlo hits of NewRootSampler for the
// terminals {source, v}, with the source in the random part, in the
// two-vertex component, or isolated.
func TestReachCountsMatchesRootSampler(t *testing.T) {
	ctx := context.Background()
	r := rand.New(rand.NewPCG(77, 78))
	for trial := 0; trial < 24; trial++ {
		g, big := reachGraph(r)
		source := []int{r.IntN(big), big + r.IntN(2), g.N() - 1}[trial%3]
		s := []int{1, 129, 700}[r.IntN(3)]
		seed := r.Uint64()
		want := make([]int, g.N())
		for v := range want {
			if v == source {
				want[v] = s
				continue
			}
			smp, err := NewRootSampler(ctx, g, ugraph.Terminals{min(source, v), max(source, v)}, Config{Samples: s, Seed: seed, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := smp.Resume(ctx, s); err != nil {
				t.Fatal(err)
			}
			want[v] = smp.r.strata[0].conn
		}
		for _, workers := range []int{1, 2, 5} {
			got, err := ReachCounts(ctx, g, source, Config{Samples: s, Seed: seed, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("trial %d (n=%d, m=%d, source %d, s=%d) workers %d: vertex %d reached %d times, root sampler hits %d",
						trial, g.N(), g.M(), source, s, workers, v, got[v], want[v])
				}
			}
		}
	}
}

// cancelledAfterEntry is a cancelled ctx whose first Err call reports
// nothing, so the entry check passes and the draws meet the cancellation.
type cancelledAfterEntry struct {
	context.Context
	checked bool
}

func (c *cancelledAfterEntry) Err() error {
	if !c.checked {
		c.checked = true
		return nil
	}
	return c.Context.Err()
}

// TestReachCountsErrors: a ctx cancelled before the call or before the
// draws returns ctx.Err(), and the root run's validation applies.
func TestReachCountsErrors(t *testing.T) {
	g, err := ugraph.FromEdges(3, []ugraph.Edge{{U: 0, V: 1, P: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, ctx := range []context.Context{ctx, &cancelledAfterEntry{Context: ctx}} {
		if _, err := ReachCounts(ctx, g, 0, Config{Samples: 1000, Workers: 1}); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled ctx: err = %v", err)
		}
	}
	for _, source := range []int{-1, 3} {
		if _, err := ReachCounts(context.Background(), g, source, Config{Samples: 10}); !errors.Is(err, ugraph.ErrVertexRange) {
			t.Fatalf("source %d: err = %v", source, err)
		}
	}
	if _, err := ReachCounts(context.Background(), g, 0, Config{}); err == nil {
		t.Fatal("zero samples accepted")
	}
	if _, err := g.AddEdge(2, 2, 0.5); err != nil {
		t.Fatal(err)
	}
	if _, err := ReachCounts(context.Background(), g, 0, Config{Samples: 10}); err == nil {
		t.Fatal("self-loop accepted")
	}
}
