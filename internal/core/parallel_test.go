package core

import (
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
