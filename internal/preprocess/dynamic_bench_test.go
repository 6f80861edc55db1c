package preprocess_test

import (
	"math/rand/v2"
	"testing"

	"netrel/internal/preprocess"
	"netrel/internal/ugraph"
)

// updateSink keeps the benchmarked call's result alive.
var updateSink *preprocess.IndexUpdate

// BenchmarkIndexUpdate times Index.Update for single-edge deltas of each
// kind on two Small-scale datasets: Tokyo (sparse road network, many
// small components) and Hit-d (dense protein network, one large one).
// Each sub-benchmark cycles through 64 random deltas prepared up front, so
// only Update itself is timed: a probability-only delta keeps the index,
// a removal or addition rebuilds it.
func BenchmarkIndexUpdate(b *testing.B) {
	for _, name := range []string{"Tokyo", "Hit-d"} {
		_, g := smallDataset(b, name)
		idx := preprocess.BuildIndex(g)
		for _, kind := range []string{"set_prob", "remove", "add"} {
			b.Run(name+"/"+kind, func(b *testing.B) {
				r := rand.New(rand.NewPCG(1, 2))
				type step struct {
					d  ugraph.Delta
					ng *ugraph.Graph
				}
				steps := make([]step, 64)
				for i := range steps {
					var d ugraph.Delta
					switch kind {
					case "set_prob":
						d.SetProb = []ugraph.ProbUpdate{{Edge: r.IntN(g.M()), P: 0.5}}
					case "remove":
						d.Remove = []int{r.IntN(g.M())}
					case "add":
						u := r.IntN(g.N())
						v := (u + 1 + r.IntN(g.N()-1)) % g.N()
						d.Add = []ugraph.Edge{{U: u, V: v, P: 0.5}}
					}
					ng, _, err := ugraph.ApplyDelta(g, d)
					if err != nil {
						b.Fatal(err)
					}
					steps[i] = step{d: d, ng: ng}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s := steps[i%len(steps)]
					updateSink = idx.Update(g, s.ng, s.d)
				}
			})
		}
	}
}
