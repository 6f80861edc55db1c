package core

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"testing"

	"netrel/internal/estimator"
	"netrel/internal/ugraph"
)

// sampledWorkload builds a graph + config that forces heavy stratum
// sampling (tiny width on a wide random graph).
func sampledWorkload(t *testing.T) (*ugraph.Graph, ugraph.Terminals, Config) {
	t.Helper()
	r := rand.New(rand.NewPCG(99, 1))
	g := randConnected(r, 30, 70)
	ts, err := ugraph.NewTerminals(g, []int{0, 10, 20, 29})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		MaxWidth: 8,
		Samples:  3000,
		Seed:     7,
		Order:    bfsOrder(g, ts),
	}
	return g, ts, cfg
}

func TestComputeDeterministicAcrossWorkers(t *testing.T) {
	for _, kind := range []estimator.Kind{estimator.MonteCarlo, estimator.HorvitzThompson} {
		g, ts, cfg := sampledWorkload(t)
		cfg.Estimator = kind
		cfg.Workers = 1
		base, err := compute(g, ts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if base.Exact || base.Strata == 0 || base.SamplesUsed == 0 {
			t.Fatalf("%v: workload not exercising the sampling path: %+v", kind, base)
		}
		for _, w := range []int{2, 4, runtime.GOMAXPROCS(0), 13} {
			cfg.Workers = w
			res, err := compute(g, ts, cfg)
			if err != nil {
				t.Fatalf("%v workers=%d: %v", kind, w, err)
			}
			if res.Estimate != base.Estimate || res.Lower != base.Lower ||
				res.Upper != base.Upper || res.Variance != base.Variance {
				t.Fatalf("%v workers=%d: estimate %v/[%v,%v] != base %v/[%v,%v]",
					kind, w, res.Estimate, res.Lower, res.Upper,
					base.Estimate, base.Lower, base.Upper)
			}
			if res.SamplesUsed != base.SamplesUsed || res.Strata != base.Strata {
				t.Fatalf("%v workers=%d: accounting %d/%d != base %d/%d",
					kind, w, res.SamplesUsed, res.Strata, base.SamplesUsed, base.Strata)
			}
			if res.EstimateX.Cmp(base.EstimateX) != 0 {
				t.Fatalf("%v workers=%d: extended-range estimates differ", kind, w)
			}
		}
	}
}

// TestChunkStreamsDiffer guards the seed derivation: distinct (layer,
// stratum, chunk) coordinates must produce distinct streams, otherwise
// chunks would replay each other's draws.
func TestChunkStreamsDiffer(t *testing.T) {
	r := &run{cfg: Config{Seed: 5}}
	seen := map[uint64]bool{}
	for layer := 0; layer < 8; layer++ {
		for stratum := 0; stratum < 8; stratum++ {
			for chunk := 0; chunk < 8; chunk++ {
				rng := r.chunkRNG(layer, stratum, chunk)
				v := rng.next()
				if seen[v] {
					t.Fatalf("stream collision at (%d,%d,%d)", layer, stratum, chunk)
				}
				seen[v] = true
			}
		}
	}
}

// TestWideLayersDeterministicAcrossWorkers sweeps worker counts over a
// construction whose layers span many expansion chunks (expandChunk
// parents each) and several scoring chunks (scoreChunk nodes each), and
// which deletes nodes and then flushes: each chunk writes its children
// into its own window of the child arena, and the replay, the scores and
// the rank sort must still reproduce the one-worker run field by field.
func TestWideLayersDeterministicAcrossWorkers(t *testing.T) {
	r := rand.New(rand.NewPCG(31, 7))
	g := randConnected(r, 60, 120)
	ts, err := ugraph.NewTerminals(g, []int{0, 15, 30, 45, 59})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{MaxWidth: 600, Samples: 2000, Seed: 11, Order: bfsOrder(g, ts)}
	for _, kind := range []estimator.Kind{estimator.MonteCarlo, estimator.HorvitzThompson} {
		cfg.Estimator = kind
		cfg.Workers = 1
		base, err := compute(g, ts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%v: peak width %d, %d layers, created %d, merged %d, deleted %d, %d strata, flushed %v",
			kind, base.PeakWidth, base.LayersProcessed, base.NodesCreated, base.NodesMerged, base.NodesDeleted, base.Strata, base.Flushed)
		if base.PeakWidth <= 2*scoreChunk || base.NodesDeleted == 0 || !base.Flushed || base.SamplesUsed == 0 {
			t.Fatalf("%v: workload does not span several chunks, delete and flush: %+v", kind, base)
		}
		for _, w := range []int{2, 4, 13} {
			cfg.Workers = w
			res, err := compute(g, ts, cfg)
			if err != nil {
				t.Fatalf("%v workers=%d: %v", kind, w, err)
			}
			label := fmt.Sprintf("%v workers=%d", kind, w)
			sameResult(t, label, res, base)
			if res.NodesCreated != base.NodesCreated || res.NodesMerged != base.NodesMerged ||
				res.NodesDeleted != base.NodesDeleted || res.PeakWidth != base.PeakWidth || res.Strata != base.Strata {
				t.Fatalf("%s: created/merged/deleted %d/%d/%d, peak %d, strata %d; one worker gives %d/%d/%d, %d, %d",
					label, res.NodesCreated, res.NodesMerged, res.NodesDeleted, res.PeakWidth, res.Strata,
					base.NodesCreated, base.NodesMerged, base.NodesDeleted, base.PeakWidth, base.Strata)
			}
		}
	}
}
