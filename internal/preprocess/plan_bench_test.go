package preprocess_test

import (
	"context"
	"math/rand/v2"
	"slices"
	"testing"

	"netrel"
	"netrel/datasets"
	"netrel/internal/preprocess"
	"netrel/internal/ugraph"
)

// Sinks keep the benchmarked calls' results alive.
var (
	planSink  *preprocess.Result
	indexSink *preprocess.Index
)

// toInternal copies a public graph into the internal representation.
func toInternal(b *testing.B, pub *netrel.Graph) *ugraph.Graph {
	g := ugraph.New(pub.N())
	for _, e := range pub.Edges() {
		if _, err := g.AddEdge(e.U, e.V, e.P); err != nil {
			b.Fatal(err)
		}
	}
	return g
}

// smallDataset generates a Small-scale dataset at seed 1, in both forms.
func smallDataset(b *testing.B, name string) (*netrel.Graph, *ugraph.Graph) {
	pub, err := datasets.Generate(name, datasets.Small, 1)
	if err != nil {
		b.Fatal(err)
	}
	return pub, toInternal(b, pub)
}

// BenchmarkPlan times RunContext against a prebuilt index, cycling through
// terminal sets prepared up front: local sets of 2 or 3 terminals, each
// within a 12-vertex breadth-first ball, on RoadNetwork(400, 440) (the
// daemon benchmark's queries), and 10 random terminals on Tokyo.
func BenchmarkPlan(b *testing.B) {
	pub, err := datasets.RoadNetwork(400, 440, 1)
	if err != nil {
		b.Fatal(err)
	}
	road := toInternal(b, pub)
	r := rand.New(rand.NewPCG(1, 2))
	adjStart, adj := road.Adjacency()
	var local [][]int
	for len(local) < 48 {
		ball := []int{r.IntN(road.N())}
		for i := 0; i < len(ball) && len(ball) < 12; i++ {
			for _, ei := range adj[adjStart[ball[i]]:adjStart[ball[i]+1]] {
				if w := ugraph.Other(road.Edge(int(ei)), ball[i]); len(ball) < 12 && !slices.Contains(ball, w) {
					ball = append(ball, w)
				}
			}
		}
		if k := 2 + len(local)%2; len(ball) >= k {
			r.Shuffle(len(ball), func(i, j int) { ball[i], ball[j] = ball[j], ball[i] })
			local = append(local, ball[:k])
		}
	}
	benchPlan(b, "RoadNetwork/local", road, local)

	pubTokyo, tokyo := smallDataset(b, "Tokyo")
	var sets [][]int
	for seed := uint64(1); seed <= 16; seed++ {
		ts, err := datasets.RandomTerminals(pubTokyo, 10, seed)
		if err != nil {
			b.Fatal(err)
		}
		sets = append(sets, ts)
	}
	benchPlan(b, "Tokyo/k=10", tokyo, sets)
}

func benchPlan(b *testing.B, name string, g *ugraph.Graph, sets [][]int) {
	idx := preprocess.BuildIndex(g)
	tss := make([]ugraph.Terminals, len(sets))
	for i, set := range sets {
		ts, err := ugraph.NewTerminals(g, set)
		if err != nil {
			b.Fatal(err)
		}
		tss[i] = ts
	}
	b.Run(name, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := preprocess.RunContext(context.Background(), g, tss[i%len(tss)], idx)
			if err != nil {
				b.Fatal(err)
			}
			planSink = res
		}
	})
}

// BenchmarkBuildIndex times the once-per-graph index build on Tokyo
// (sparse, many small components) and Hit-d (dense, one large one).
func BenchmarkBuildIndex(b *testing.B) {
	for _, name := range []string{"Tokyo", "Hit-d"} {
		_, g := smallDataset(b, name)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				indexSink = preprocess.BuildIndex(g)
			}
		})
	}
}
