package netrel

// Differential oracle harness (PR 4 satellite): seeded random small graphs
// cross-checked across every solver in the module, swept over worker counts
// and execution engines. The s-t reliability comparison study (Ke et al.,
// arXiv:1904.05300) observes that exact solvers and samplers disagree
// precisely when implementations drift apart; this harness pins the solvers
// to each other and to the brute-force possible-world enumeration so a
// construction or scheduling refactor cannot drift silently:
//
//   - BruteForce (Definition 1 verbatim) is the ground truth.
//   - BDDExact (under every edge ordering) and Exact (the S2BDD run in
//     exact mode, through the full preprocessing pipeline) must both agree with it to float rounding —
//     they sum the same world masses along different groupings, so the
//     comparison tolerance is rounding slack, not a statistical bound.
//   - Reliability with a tiny width (forcing deletion + stratified
//     sampling) must bracket the truth with its proven bounds: pc ≤ R and
//     R ≤ 1−pd hold by theorem for every seed, so the assertion carries no
//     sampling-variance flakiness.
//   - Each solver must return bit-identical Results across workers
//     {1, 4, GOMAXPROCS} × engine {shared pool, standalone spawning}.

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"netrel/internal/exact"
	"netrel/internal/ugraph"
	"netrel/internal/xfloat"
)

// exactAgreeTol bounds the disagreement between two exact solvers: both
// compute the same sum of world masses, but along different groupings
// (factored 2ECC products vs whole-graph BDD layers), so the last few ulps
// may differ. Anything beyond rounding slack is a real bug.
const exactAgreeTol = 1e-9

// boundSlack absorbs float64 rounding when comparing a solver's proven
// bounds against the brute-force truth.
const boundSlack = 1e-12

// diffCase is one randomly generated differential workload.
type diffCase struct {
	name  string
	g     *Graph
	terms []int
}

// randomDiffCase draws an uncertain graph with n ≤ 12 vertices, a spanning
// tree plus density-controlled extra edges (m ≤ 18 keeps the 2^m
// brute-force oracle fast), probabilities spanning near-0 to near-1, and
// 2–4 terminals.
func randomDiffCase(rng *rand.Rand, i int) diffCase {
	n := 4 + rng.IntN(9) // 4..12
	g := NewGraph(n)
	prob := func() float64 { return 0.05 + 0.9*rng.Float64() }
	perm := rng.Perm(n)
	for v := 1; v < n; v++ {
		// Random spanning tree: attach each vertex to an earlier one.
		u := perm[rng.IntN(v)]
		if err := g.AddEdge(perm[v], u, prob()); err != nil {
			panic(err)
		}
	}
	extra := rng.IntN(min(10, 19-n)) // keep m = n-1+extra ≤ 18
	seen := map[[2]int]bool{}
	for attempts := 0; extra > 0 && attempts < 100; attempts++ {
		u, v := rng.IntN(n), rng.IntN(n)
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		if seen[[2]int{u, v}] {
			continue
		}
		seen[[2]int{u, v}] = true
		if err := g.AddEdge(u, v, prob()); err != nil {
			panic(err)
		}
		extra--
	}
	k := 2 + rng.IntN(3) // 2..4 terminals
	if k > n {
		k = n
	}
	terms := rng.Perm(n)[:k]
	return diffCase{name: fmt.Sprintf("case%02d/n%d/m%d/k%d", i, n, g.M(), k), g: g, terms: terms}
}

// bruteForce computes the ground-truth reliability by possible-world
// enumeration.
func bruteForce(t *testing.T, g *Graph, terms []int) float64 {
	t.Helper()
	ts, err := ugraph.NewTerminals(g.internal(), terms)
	if err != nil {
		t.Fatal(err)
	}
	r, err := exact.BruteForce(g.internal(), ts)
	if err != nil {
		t.Fatal(err)
	}
	return r.Float64()
}

// bruteForceConditional computes the ground-truth conditional reliability
// P[T connected | evidence] directly from Definition 1 on the ORIGINAL
// graph: enumerate every possible world, keep those consistent with the
// evidence, and divide the connected-and-consistent mass by the consistent
// mass. It never builds a conditioned graph, so it is an oracle independent
// of the library's conditioning rewrite.
func bruteForceConditional(t *testing.T, g *Graph, terms []int, obs []EdgeObservation) float64 {
	t.Helper()
	ts, err := ugraph.NewTerminals(g.internal(), terms)
	if err != nil {
		t.Fatal(err)
	}
	consistent := xfloat.Zero
	connected := xfloat.Zero
	ugraph.EnumerateWorlds(g.internal(), func(exists []bool, pr xfloat.F) {
		for _, o := range obs {
			if exists[o.Edge] != o.Up {
				return
			}
		}
		consistent = consistent.Add(pr)
		if ugraph.TerminalsConnected(g.internal(), ts, exists) {
			connected = connected.Add(pr)
		}
	})
	if consistent.Float64() == 0 {
		t.Fatal("evidence has zero probability; conditioning undefined")
	}
	return connected.Float64() / consistent.Float64()
}

func absDiff(a, b float64) float64 {
	if a > b {
		return a - b
	}
	return b - a
}

// engineModes enumerates the execution venues of the sweep: the shared
// default engine pool and the standalone spawn-per-call mode.
func engineModes() []struct {
	name string
	eng  *Engine
} {
	return []struct {
		name string
		eng  *Engine
	}{
		{"shared", DefaultEngine()},
		{"standalone", nil},
	}
}

// TestDifferentialSolvers is the harness entry point.
func TestDifferentialSolvers(t *testing.T) {
	rng := rand.New(rand.NewPCG(0xd1ff, 0x7e57))
	const cases = 24
	for i := 0; i < cases; i++ {
		c := randomDiffCase(rng, i)
		t.Run(c.name, func(t *testing.T) {
			truth := bruteForce(t, c.g, c.terms)

			// Exact solvers vs ground truth. BDDExact builds the whole
			// graph's diagram, so each edge order (BFS is the default)
			// builds a different one.
			bddRes, err := BDDExact(c.g, c.terms)
			if err != nil {
				t.Fatalf("BDDExact: %v", err)
			}
			for _, ord := range []Ordering{OrderNatural, OrderDFS, OrderDegree, OrderRCM} {
				res, err := BDDExact(c.g, c.terms, WithOrdering(ord))
				if err != nil {
					t.Fatalf("BDDExact ordering %d: %v", ord, err)
				}
				if d := absDiff(res.Reliability, truth); d > exactAgreeTol {
					t.Fatalf("BDDExact ordering %d: %v vs brute force %v (diff %g)", ord, res.Reliability, truth, d)
				}
			}
			exactRes, err := Exact(c.g, c.terms, WithMaxWidth(1<<16))
			if err != nil {
				t.Fatalf("Exact: %v", err)
			}
			if !exactRes.Exact {
				t.Fatal("Exact result not flagged exact")
			}
			if d := absDiff(exactRes.Reliability, truth); d > exactAgreeTol {
				t.Fatalf("Exact %v vs brute force %v (diff %g)", exactRes.Reliability, truth, d)
			}
			if d := absDiff(exactRes.Reliability, bddRes.Reliability); d > exactAgreeTol {
				t.Fatalf("Exact %v vs BDDExact %v (diff %g)", exactRes.Reliability, bddRes.Reliability, d)
			}
			factRes, err := Factoring(c.g, c.terms)
			if err != nil {
				t.Fatalf("Factoring: %v", err)
			}
			if d := absDiff(factRes.Reliability, truth); d > exactAgreeTol {
				t.Fatalf("Factoring %v vs brute force %v (diff %g)", factRes.Reliability, truth, d)
			}

			// The sampling path: a width of 4 forces node deletion and
			// stratified completion sampling on all but the tiniest cases.
			// The proven bounds must bracket both the truth and the
			// estimate for every seed — a theorem, not a statistical bound.
			approxOpts := []Option{WithSamples(800), WithSeed(uint64(i) + 1), WithMaxWidth(4)}
			approx, err := Reliability(c.g, c.terms, approxOpts...)
			if err != nil {
				t.Fatalf("Reliability: %v", err)
			}
			if approx.Lower > truth+boundSlack || truth > approx.Upper+boundSlack {
				t.Fatalf("bounds [%v, %v] do not bracket brute force %v",
					approx.Lower, approx.Upper, truth)
			}
			if approx.Reliability < approx.Lower-boundSlack || approx.Reliability > approx.Upper+boundSlack {
				t.Fatalf("estimate %v outside own bounds [%v, %v]",
					approx.Reliability, approx.Lower, approx.Upper)
			}

			// Scheduling sweep: workers × engine must never change a bit.
			for _, mode := range engineModes() {
				for _, w := range workerCounts() {
					sess := NewSession(c.g)
					sess.SetEngine(mode.eng)
					sess.SetCacheCapacity(0) // force full re-solves
					opts := append(append([]Option{}, approxOpts...), WithWorkers(w))
					res, err := sess.Reliability(c.terms, opts...)
					if err != nil {
						t.Fatalf("%s/workers=%d: %v", mode.name, w, err)
					}
					assertSameResult(t, fmt.Sprintf("Reliability %s/workers=%d", mode.name, w), approx, res)
					ex, err := sess.Exact(c.terms, WithMaxWidth(1<<16), WithWorkers(w))
					if err != nil {
						t.Fatalf("Exact %s/workers=%d: %v", mode.name, w, err)
					}
					assertSameResult(t, fmt.Sprintf("Exact %s/workers=%d", mode.name, w), exactRes, ex)
				}
			}
		})
	}
}

// randomEvidence draws 1–3 conflict-free edge observations for a diff case.
func randomEvidence(rng *rand.Rand, g *Graph) []EdgeObservation {
	k := 1 + rng.IntN(3)
	seen := map[int]bool{}
	var obs []EdgeObservation
	for len(obs) < k {
		e := rng.IntN(g.M())
		if seen[e] {
			continue
		}
		seen[e] = true
		obs = append(obs, EdgeObservation{Edge: e, Up: rng.IntN(2) == 0})
	}
	return obs
}

// TestDifferentialConditional pins conditional reliability to a world-
// enumeration oracle that filters by evidence consistency on the original
// graph — fully independent of the conditioning rewrite under test. The
// exact pipeline must agree to rounding slack; the sampling pipeline's
// proven bounds must bracket the conditional truth for every seed.
func TestDifferentialConditional(t *testing.T) {
	rng := rand.New(rand.NewPCG(0xc0ed, 0x0b5e))
	const cases = 16
	for i := 0; i < cases; i++ {
		c := randomDiffCase(rng, i)
		obs := randomEvidence(rng, c.g)
		t.Run(c.name, func(t *testing.T) {
			truth := bruteForceConditional(t, c.g, c.terms, obs)
			spec := QuerySpec{Mode: ModeConditional, Terminals: c.terms, Evidence: obs}

			ex, err := SolveExact(c.g, spec, WithMaxWidth(1<<16))
			if err != nil {
				t.Fatalf("SolveExact: %v", err)
			}
			if !ex.Exact {
				t.Fatal("conditional exact result not flagged exact")
			}
			if d := absDiff(ex.Reliability, truth); d > exactAgreeTol {
				t.Fatalf("SolveExact %v vs conditional oracle %v (diff %g)", ex.Reliability, truth, d)
			}

			approxOpts := []Option{WithSamples(800), WithSeed(uint64(i) + 1), WithMaxWidth(4)}
			approx, err := Solve(c.g, spec, approxOpts...)
			if err != nil {
				t.Fatalf("Solve: %v", err)
			}
			if approx.Lower > truth+boundSlack || truth > approx.Upper+boundSlack {
				t.Fatalf("bounds [%v, %v] do not bracket conditional oracle %v",
					approx.Lower, approx.Upper, truth)
			}

			// Scheduling sweep: the conditioned pipeline must be as
			// schedule-blind as the unconditioned one.
			for _, mode := range engineModes() {
				for _, w := range workerCounts() {
					sess := NewSession(c.g)
					sess.SetEngine(mode.eng)
					sess.SetCacheCapacity(0)
					opts := append(append([]Option{}, approxOpts...), WithWorkers(w))
					res, err := sess.Solve(spec, opts...)
					if err != nil {
						t.Fatalf("%s/workers=%d: %v", mode.name, w, err)
					}
					assertSameResult(t, fmt.Sprintf("conditional %s/workers=%d", mode.name, w), approx, res)
				}
			}
		})
	}
}

// TestDifferentialConstructionWorkers pins construction sharding
// specifically: on a workload whose 192-wide layers split into several
// expansion chunks, the WithWorkers budget construction runs on must be
// result-neutral.
func TestDifferentialConstructionWorkers(t *testing.T) {
	g := denseRandomGraph(t, 36, 130, 17)
	terms := []int{0, 12, 24, 35}
	opts := func(w int) []Option {
		return []Option{WithSamples(2500), WithSeed(5), WithMaxWidth(192), WithWorkers(w)}
	}
	base, err := Reliability(g, terms, opts(1)...)
	if err != nil {
		t.Fatal(err)
	}
	if base.Exact {
		t.Fatal("workload solved exactly; construction sharding not exercised")
	}
	for _, w := range append(workerCounts(), 3) {
		res, err := Reliability(g, terms, opts(w)...)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		assertSameResult(t, fmt.Sprintf("workers=%d", w), base, res)
	}
}
