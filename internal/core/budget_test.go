package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"testing"

	"netrel/internal/estimator"
	"netrel/internal/exact"
	"netrel/internal/frontier"
	"netrel/internal/ugraph"
)

// The stall rule compares against the resolved mass one full window back,
// so it cannot fire before layer stallWindow+1: a flush within the first
// stallWindow layers is the work budget's.

// TestWorkBudgetFlushes verifies the construction work budget: with a tiny
// sample budget the budget is tiny too, so construction must flush within
// the first window instead of walking the whole graph.
func TestWorkBudgetFlushes(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 3))
	g := randConnected(r, 300, 900)
	perm := r.Perm(300)
	ts, _ := ugraph.NewTerminals(g, perm[:5])
	res, err := compute(g, ts, Config{
		MaxWidth: 10000, Samples: 10, Seed: 1,
		Order: bfsOrder(g, ts),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Flushed || res.LayersProcessed > stallWindow {
		t.Fatalf("work budget did not flush: flushed %v after %d of %d layers",
			res.Flushed, res.LayersProcessed, g.M())
	}
}

// TestWorkBudgetScalesWithSamples: more samples buy more construction. The
// small budget flushes within the first window, so the work budget is what
// stops it.
func TestWorkBudgetScalesWithSamples(t *testing.T) {
	r := rand.New(rand.NewPCG(5, 8))
	g := randConnected(r, 300, 900)
	perm := r.Perm(300)
	ts, _ := ugraph.NewTerminals(g, perm[:5])
	layers := func(samples int) int {
		res, err := compute(g, ts, Config{
			MaxWidth: 256, Samples: samples, Seed: 1,
			Order: bfsOrder(g, ts),
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Flushed {
			t.Fatalf("s=%d: construction walked all %d layers", samples, g.M())
		}
		return res.LayersProcessed
	}
	small, large := layers(20), layers(5000)
	if small > stallWindow || large <= small {
		t.Fatalf("budget-limited run built %d layers, larger budget %d", small, large)
	}
}

// TestPoolingPreservesCorrectness reruns the exact cross-check with a width
// that exercises heavy deletion (and therefore heavy pool reuse), comparing
// the estimator's mean against brute force.
func TestPoolingPreservesCorrectness(t *testing.T) {
	r := rand.New(rand.NewPCG(17, 23))
	g := randConnected(r, 9, 9)
	perm := r.Perm(9)
	ts, _ := ugraph.NewTerminals(g, perm[:3])
	want, err := exact.BruteForce(g, ts)
	if err != nil {
		t.Fatal(err)
	}
	ord := bfsOrder(g, ts)
	const runs = 250
	sum := 0.0
	for i := 0; i < runs; i++ {
		res, err := compute(g, ts, Config{
			MaxWidth: 3, Samples: 80, Seed: uint64(i), Order: ord,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Lower > want.Float64()+1e-9 || res.Upper < want.Float64()-1e-9 {
			t.Fatalf("run %d: bounds [%v,%v] miss exact %v", i, res.Lower, res.Upper, want.Float64())
		}
		sum += res.Estimate
	}
	mean := sum / runs
	if math.Abs(mean-want.Float64()) > 0.12 {
		t.Fatalf("mean %v vs exact %v under heavy pooling", mean, want.Float64())
	}
}

// TestStatesDoNotAliasAfterPooling: repeated runs on the same graph must
// give identical results — pooled storage must never leak state between
// runs (each run owns its pool) or within one. The flush case deletes nodes
// and then flushes the live layer, so both kinds of stratum return their
// snapshots to the pool; a snapshot put back twice would hand one storage
// to two live states. A sampler drained by many small Resume calls
// must also match one whole Resume, for both estimators and any worker
// count.
func TestStatesDoNotAliasAfterPooling(t *testing.T) {
	r := rand.New(rand.NewPCG(29, 31))
	g := randConnected(r, 40, 60)
	ts, _ := ugraph.NewTerminals(g, []int{0, 20, 39})
	base := Config{MaxWidth: 8, Samples: 500, Seed: 77, Order: bfsOrder(g, ts)}
	// Fewer samples shrink the work budget, so this run flushes earlier
	// than base, after deleting nodes.
	flush := base
	flush.Samples = 100
	// Without the stall rule nothing flushes: the run deletes nodes and
	// then runs out of live nodes before the last layer.
	noFlush := base
	noFlush.DisableStall = true
	for _, kind := range []estimator.Kind{estimator.MonteCarlo, estimator.HorvitzThompson} {
		for _, c := range []struct {
			name string
			cfg  Config
		}{{"deleted", base}, {"flush", flush}, {"noflush", noFlush}} {
			cfg := c.cfg
			cfg.Estimator = kind
			label := kind.String() + "/" + c.name
			cfg.Workers = 1
			a, err := compute(g, ts, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if a.NodesDeleted == 0 || a.Strata < 2 || (c.name == "flush" && !a.Flushed) ||
				(c.name == "noflush" && a.Flushed) {
				t.Fatalf("%s: workload deleted %d nodes in %d strata, flushed %v",
					label, a.NodesDeleted, a.Strata, a.Flushed)
			}
			for _, w := range []int{1, 4, runtime.GOMAXPROCS(0)} {
				cfg.Workers = w
				for i := 0; i < 2; i++ {
					b, err := compute(g, ts, cfg)
					if err != nil {
						t.Fatal(err)
					}
					sameResult(t, fmt.Sprintf("%s workers=%d repeat %d", label, w, i), b, a)
				}
				smp, err := NewSampler(context.Background(), g, ts, cfg)
				if err != nil {
					t.Fatal(err)
				}
				for smp.Remaining() > 0 {
					if _, err := smp.Resume(context.Background(), 37); err != nil {
						t.Fatal(err)
					}
				}
				res, err := smp.Result()
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, fmt.Sprintf("%s workers=%d split", label, w), res, a)
			}
		}
	}
}

// bddConfig is the classic frontier BDD as a core run: exact, unbounded
// width, retire-time sink detection only, no heuristic ordering.
func bddConfig(ord []int, budget int) Config {
	return Config{
		MaxWidth: math.MaxInt, Order: ord, ExactOnly: true,
		DisableEarlyTermination: true, DisableHeuristic: true,
		NodeBudget: budget, Workers: 1,
	}
}

// refNodeCounts builds the classic frontier BDD with byte keys and returns
// cum, where cum[l] is the number of nodes created through layer l (cum[0]
// counts the root).
func refNodeCounts(plan *frontier.Plan) []int64 {
	ref := newRefApply(plan)
	layer := []frontier.State{plan.Root()}
	cum := []int64{1}
	var out frontier.State
	for l := 0; l < plan.M(); l++ {
		seen := map[string]bool{}
		var next []frontier.State
		for i := range layer {
			for _, exists := range [2]bool{true, false} {
				if ref.apply(l, &layer[i], exists, false, &out) != expandLive {
					continue
				}
				if k := string(stateKey(&out, nil)); !seen[k] {
					seen[k] = true
					next = append(next, cloneState(out))
				}
			}
		}
		layer = next
		cum = append(cum, cum[l]+int64(len(next)))
	}
	return cum
}

// TestNodeBudgetDNF checks the node budget of the exact BDD baseline: a
// run fails with ErrNodeBudget exactly when the budget is below the
// unbudgeted run's NodesCreated, and the error names the first layer whose
// cumulative node count exceeds the budget.
func TestNodeBudgetDNF(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	g := randConnected(r, 14, 24)
	ts, _ := ugraph.NewTerminals(g, []int{0, 5, 10})
	ord := bfsOrder(g, ts)
	plan, err := frontier.NewPlan(g, ts, ord)
	if err != nil {
		t.Fatal(err)
	}
	cum := refNodeCounts(plan)
	full, err := compute(g, ts, bddConfig(ord, 0))
	if err != nil {
		t.Fatal(err)
	}
	if full.NodesCreated != cum[plan.M()] {
		t.Fatalf("NodesCreated %d, reference BDD has %d nodes", full.NodesCreated, cum[plan.M()])
	}
	want, err := exact.FactoringContext(context.Background(), g, ts, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(full.Estimate - want.Float64()); !full.Exact || d > 1e-12 {
		t.Fatalf("unbudgeted run: %v (exact %v), factoring %v", full.Estimate, full.Exact, want.Float64())
	}
	// Probe each layer boundary: one node under it must DNF at that layer,
	// exactly it must get past it.
	for l := 1; l <= plan.M(); l++ {
		for _, budget := range []int64{cum[l] - 1, cum[l]} {
			if budget < 1 {
				continue
			}
			crossing := 0
			for j := 1; j <= plan.M(); j++ {
				if cum[j] > budget {
					crossing = j
					break
				}
			}
			res, err := compute(g, ts, bddConfig(ord, int(budget)))
			if crossing == 0 {
				if err != nil || res.EstimateX != full.EstimateX {
					t.Fatalf("budget %d ≥ %d nodes: %v, R %v want %v", budget, full.NodesCreated, err, res.Estimate, full.Estimate)
				}
				continue
			}
			wantMsg := fmt.Sprintf("%v: >%d nodes at layer %d/%d", ErrNodeBudget, budget, crossing, plan.M())
			if !errors.Is(err, ErrNodeBudget) || err.Error() != wantMsg {
				t.Fatalf("budget %d: got %v, want %q", budget, err, wantMsg)
			}
		}
	}
}
