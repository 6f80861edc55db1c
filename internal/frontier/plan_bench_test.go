package frontier_test

import (
	"testing"

	"netrel/datasets"
	"netrel/internal/frontier"
	"netrel/internal/order"
	"netrel/internal/ugraph"
)

// planSink keeps the benchmarked plan alive.
var planSink *frontier.Plan

// BenchmarkNewPlan times building one frontier plan on two inputs: the
// Small-scale Hit-d protein network (12,438 edges, BFS order, 10
// terminals), whose frontier is a few hundred vertices wide, and a double
// star with 4,096 leaves (hub 0 to every leaf, then hub 1 to every leaf),
// whose frontier holds every leaf at once.
func BenchmarkNewPlan(b *testing.B) {
	pub, err := datasets.Generate("Hit-d", datasets.Small, 1)
	if err != nil {
		b.Fatal(err)
	}
	hitd := ugraph.New(pub.N())
	for _, e := range pub.Edges() {
		if _, err := hitd.AddEdge(e.U, e.V, e.P); err != nil {
			b.Fatal(err)
		}
	}
	picked, err := datasets.RandomTerminals(pub, 10, 7)
	if err != nil {
		b.Fatal(err)
	}

	const leaves = 4096
	star := ugraph.New(leaves + 2)
	for hub := 0; hub < 2; hub++ {
		for v := 2; v < leaves+2; v++ {
			if _, err := star.AddEdge(hub, v, 0.5); err != nil {
				b.Fatal(err)
			}
		}
	}

	for _, c := range []struct {
		name  string
		g     *ugraph.Graph
		terms []int
		st    order.Strategy
	}{
		{"Hit-d", hitd, picked, order.BFS},
		{"double-star", star, []int{0, 1}, order.Natural},
	} {
		b.Run(c.name, func(b *testing.B) {
			ts, err := ugraph.NewTerminals(c.g, c.terms)
			if err != nil {
				b.Fatal(err)
			}
			ord := order.Compute(c.g, c.st, ts[0])
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if planSink, err = frontier.NewPlan(c.g, ts, ord); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
