package core

import (
	"context"
	"math/rand/v2"
	"runtime"
	"testing"

	"netrel/internal/estimator"
	"netrel/internal/frontier"
	"netrel/internal/sampling"
	"netrel/internal/ugraph"
)

// sameResult asserts bit-identity of every estimate-bearing field.
func sameResult(t *testing.T, label string, got, want Result) {
	t.Helper()
	if got.Estimate != want.Estimate || got.Lower != want.Lower ||
		got.Upper != want.Upper || got.Variance != want.Variance {
		t.Fatalf("%s: estimate %v/[%v,%v]/var %v != %v/[%v,%v]/var %v",
			label, got.Estimate, got.Lower, got.Upper, got.Variance,
			want.Estimate, want.Lower, want.Upper, want.Variance)
	}
	if got.SamplesUsed != want.SamplesUsed || got.Strata != want.Strata ||
		got.SamplesReduced != want.SamplesReduced || got.Exact != want.Exact {
		t.Fatalf("%s: accounting %d/%d/%d/%v != %d/%d/%d/%v",
			label, got.SamplesUsed, got.Strata, got.SamplesReduced, got.Exact,
			want.SamplesUsed, want.Strata, want.SamplesReduced, want.Exact)
	}
	if got.EstimateX.Cmp(want.EstimateX) != 0 {
		t.Fatalf("%s: extended-range estimates differ", label)
	}
}

// TestSamplerResumeBitIdentical sweeps resume split points — chunk-aligned,
// mid-chunk, single-draw — across worker counts and both estimators,
// asserting that every split sequence reproduces one whole Resume on one
// worker bit for bit.
func TestSamplerResumeBitIdentical(t *testing.T) {
	ctx := context.Background()
	for _, kind := range []estimator.Kind{estimator.MonteCarlo, estimator.HorvitzThompson} {
		g, ts, cfg := sampledWorkload(t)
		cfg.Estimator = kind
		cfg.Workers = 1
		base, err := compute(g, ts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if base.Exact || base.SamplesUsed == 0 {
			t.Fatalf("%v: workload not exercising the sampling path: %+v", kind, base)
		}
		for _, w := range []int{1, 4, runtime.GOMAXPROCS(0)} {
			cfg.Workers = w
			// Splits chosen to land on chunk boundaries (128, 256), inside
			// chunks (1, 7, 100, 129), and across strata (1000).
			for _, split := range []int{1, 7, 100, 128, 129, 256, 1000} {
				smp, err := NewSampler(ctx, g, ts, cfg)
				if err != nil {
					t.Fatalf("%v workers=%d split=%d: %v", kind, w, split, err)
				}
				if smp.Scheduled() != base.SamplesUsed {
					t.Fatalf("%v workers=%d: scheduled %d != whole-Resume draws %d",
						kind, w, smp.Scheduled(), base.SamplesUsed)
				}
				for smp.Remaining() > 0 {
					if _, err := smp.Resume(ctx, split); err != nil {
						t.Fatalf("%v workers=%d split=%d: %v", kind, w, split, err)
					}
				}
				res, err := smp.Result()
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, kind.String()+"/resumed", res, base)
			}
		}
	}
}

// TestSamplerAnytimeMonotone checks the streamed interval contract: across
// resume steps the lower bound never decreases, the upper never increases,
// the estimate stays inside, and the final interval collapses onto (or
// inside) the proven bounds.
func TestSamplerAnytimeMonotone(t *testing.T) {
	ctx := context.Background()
	g, ts, cfg := sampledWorkload(t)
	cfg.Workers = 4
	smp, err := NewSampler(ctx, g, ts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, est, _ := smp.Anytime()
	if lo > hi || est < lo || est > hi {
		t.Fatalf("initial interval broken: [%v,%v] est %v", lo, hi, est)
	}
	for smp.Remaining() > 0 {
		if _, err := smp.Resume(ctx, 200); err != nil {
			t.Fatal(err)
		}
		nlo, nhi, nest, _ := smp.Anytime()
		if nlo < lo || nhi > hi {
			t.Fatalf("interval widened: [%v,%v] after [%v,%v]", nlo, nhi, lo, hi)
		}
		if nlo > nhi || nest < nlo-1e-12 || nest > nhi+1e-12 {
			t.Fatalf("interval broken: [%v,%v] est %v", nlo, nhi, nest)
		}
		lo, hi = nlo, nhi
	}
	res, err := smp.Result()
	if err != nil {
		t.Fatal(err)
	}
	if lo < res.Lower-1e-12 || hi > res.Upper+1e-12 {
		t.Fatalf("final interval [%v,%v] outside proven bounds [%v,%v]",
			lo, hi, res.Lower, res.Upper)
	}
}

// TestSamplerPartialResult checks an early-stopped sampler reports a
// well-formed anytime result: proven bounds unchanged, estimate inside
// them, and the drawn count reflecting only the draws made.
func TestSamplerPartialResult(t *testing.T) {
	ctx := context.Background()
	g, ts, cfg := sampledWorkload(t)
	base, err := compute(g, ts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	smp, err := NewSampler(ctx, g, ts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	k := smp.Scheduled() / 3
	if _, err := smp.Resume(ctx, k); err != nil {
		t.Fatal(err)
	}
	res, err := smp.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.Lower != base.Lower || res.Upper != base.Upper {
		t.Fatalf("partial result moved the proven bounds: [%v,%v] != [%v,%v]",
			res.Lower, res.Upper, base.Lower, base.Upper)
	}
	if res.SamplesUsed != k {
		t.Fatalf("partial result drew %d, want %d", res.SamplesUsed, k)
	}
	if res.Estimate < res.Lower || res.Estimate > res.Upper {
		t.Fatalf("partial estimate %v outside [%v,%v]", res.Estimate, res.Lower, res.Upper)
	}
}

// TestSamplerCancelPoisons checks that a cancelled Resume poisons the
// sampler: the error is sticky and no further draws are accepted.
func TestSamplerCancelPoisons(t *testing.T) {
	g, ts, cfg := sampledWorkload(t)
	smp, err := NewSampler(context.Background(), g, ts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := smp.Resume(cancelled, 500); err == nil {
		t.Fatal("cancelled Resume returned nil error")
	}
	if _, err := smp.Resume(context.Background(), 500); err == nil {
		t.Fatal("poisoned sampler accepted another Resume")
	}
	if _, err := smp.Result(); err == nil {
		t.Fatal("poisoned sampler produced a Result")
	}
	if smp.Remaining() != 0 {
		t.Fatalf("poisoned sampler still schedules %d draws", smp.Remaining())
	}
}

// refRootFold is the plain possible-world baseline folded by hand from
// refComplete: s draws from the root at layer 0, on the chunk streams of
// the root stratum (layer 0, ordinal 1), each draw one pick variate and
// then one Float64 coin per edge. MC counts the connected draws; HT sums
// Pr[w]/π over the distinct connected worlds in (chunk, draw) order.
func refRootFold(plan *frontier.Plan, seed uint64, s int) (hits int, ht estimator.HTEstimate) {
	seen := map[uint64]bool{}
	root := plan.Root()
	for c := 0; c < numChunks(s); c++ {
		rng := rand.New(rand.NewPCG(sampling.SeedStream(seed, 0, 1, uint64(c)), chunkStream))
		for d := c * stratumChunk; d < min(s, (c+1)*stratumChunk); d++ {
			rng.Uint64() // the pick among the stratum's one snapshot
			ok, pr, fp := refComplete(plan, 0, &root, rng)
			if !ok {
				continue
			}
			hits++
			if !seen[fp] {
				seen[fp] = true
				ht.Add(pr, true, s)
			}
		}
	}
	return hits, ht
}

// TestRootSamplerMatchesReferenceFold checks the baseline sampler, MC and
// HT, resumed whole or in uneven parts on 1 or 3 workers, against
// refRootFold bit for bit: the estimate is the fold's, the variance is
// Eq. 2 of it, and the bounds are the trivial [0, 1].
func TestRootSamplerMatchesReferenceFold(t *testing.T) {
	ctx := context.Background()
	r := rand.New(rand.NewPCG(41, 42))
	for trial := 0; trial < 8; trial++ {
		n := 3 + r.IntN(12)
		g := randConnected(r, n, r.IntN(2*n))
		ts, err := ugraph.NewTerminals(g, r.Perm(n)[:2+r.IntN(min(n-1, 4))])
		if err != nil {
			t.Fatal(err)
		}
		plan, err := frontier.NewPlan(g, ts, naturalOrder(g.M()))
		if err != nil {
			t.Fatal(err)
		}
		const s = 700
		seed := r.Uint64()
		hits, ht := refRootFold(plan, seed, s)
		for _, kind := range []estimator.Kind{estimator.MonteCarlo, estimator.HorvitzThompson} {
			want := float64(hits) / s
			if kind == estimator.HorvitzThompson {
				want = ht.Estimate()
			}
			for _, workers := range []int{1, 3} {
				for _, first := range []int{s, 1, 200} {
					smp, err := NewRootSampler(ctx, g, ts, Config{Samples: s, Estimator: kind, Seed: seed, Workers: workers})
					if err != nil {
						t.Fatal(err)
					}
					for _, k := range []int{first, s} {
						if _, err := smp.Resume(ctx, k); err != nil {
							t.Fatal(err)
						}
					}
					res, err := smp.Result()
					if err != nil {
						t.Fatal(err)
					}
					if res.Estimate != want || res.Variance != estimator.MCVariance(want, s) {
						t.Fatalf("trial %d %v workers %d first %d: estimate %v var %v, reference %v var %v",
							trial, kind, workers, first, res.Estimate, res.Variance, want, estimator.MCVariance(want, s))
					}
					if res.Lower != 0 || res.Upper != 1 || res.Exact || res.SamplesUsed != s ||
						res.SamplesRequested != s || res.SamplesReduced != s || res.Strata != 1 {
						t.Fatalf("trial %d %v: bounds [%v, %v], exact %v, samples %d/%d/%d, strata %d", trial, kind,
							res.Lower, res.Upper, res.Exact, res.SamplesRequested, res.SamplesReduced, res.SamplesUsed, res.Strata)
					}
				}
			}
		}
	}
}

// TestRootSamplerIsolatedTerminal: a terminal with no incident edge, which
// frontier.NewPlan rejects, never joins the others, so the baseline
// answers R = 0 without error.
func TestRootSamplerIsolatedTerminal(t *testing.T) {
	ctx := context.Background()
	g, err := ugraph.FromEdges(4, []ugraph.Edge{{U: 0, V: 1, P: 0.9}, {U: 1, V: 2, P: 0.9}})
	if err != nil {
		t.Fatal(err)
	}
	ts, err := ugraph.NewTerminals(g, []int{0, 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []estimator.Kind{estimator.MonteCarlo, estimator.HorvitzThompson} {
		s, err := NewRootSampler(ctx, g, ts, Config{Samples: 300, Estimator: kind, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Resume(ctx, s.Remaining()); err != nil {
			t.Fatal(err)
		}
		res, err := s.Result()
		if err != nil {
			t.Fatal(err)
		}
		if res.Estimate != 0 || res.Variance != 0 || res.SamplesUsed != 300 {
			t.Fatalf("%v: estimate %v, variance %v, %d draws", kind, res.Estimate, res.Variance, res.SamplesUsed)
		}
	}
}
