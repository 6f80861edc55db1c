package netrel

import (
	"context"
	"errors"
	"sync"
	"testing"
)

// TestTenantFromContextRoundTrip: the public wrappers carry the tag the
// engine schedules by. WithTenant's tag comes back from TenantFromContext,
// the innermost tag wins, and an untagged context reads "".
func TestTenantFromContextRoundTrip(t *testing.T) {
	if got := TenantFromContext(context.Background()); got != "" {
		t.Fatalf("untagged context has tenant %q, want \"\"", got)
	}
	ctx := WithTenant(context.Background(), "alpha")
	if got := TenantFromContext(ctx); got != "alpha" {
		t.Fatalf("tenant %q, want \"alpha\"", got)
	}
	if got := TenantFromContext(WithTenant(ctx, "beta")); got != "beta" {
		t.Fatalf("retagged tenant %q, want \"beta\"", got)
	}
}

// TestFairShareBitIdenticalUnderContention is the determinism acceptance
// check for fair-share admission: one tenant flooding a tiny engine while
// another trickles must change only *when* the trickle's queries run,
// never *what* they compute. Every light-tenant result must be
// bit-identical to an idle-engine run, with weights and quotas configured.
func TestFairShareBitIdenticalUnderContention(t *testing.T) {
	g := denseRandomGraph(t, 40, 140, 11)
	termSets := [][]int{{0, 13, 26, 39}, {1, 20, 38}, {2, 19}, {5, 11, 33}}

	// Idle-engine ground truth, one per terminal set.
	idle := NewSession(g)
	idle.SetEngine(nil)
	idle.SetCacheCapacity(0)
	expected := make([]*Result, len(termSets))
	for i, ts := range termSets {
		res, err := idle.Reliability(ts, stressOpts()...)
		if err != nil {
			t.Fatal(err)
		}
		expected[i] = res
	}

	eng := NewEngine(EngineConfig{Workers: 2, MaxInFlight: 2, QueueDepth: 64})
	t.Cleanup(eng.Close)
	// QoS knobs on: the light tenant outweighs the flood, and the flood
	// carries a quota large enough to never reject — scheduling and quota
	// accounting must be invisible to the computed results.
	eng.SetTenantWeight("light", 3)
	eng.SetTenantWeight("flood", 1)
	eng.SetTenantQuota("flood", 1e12, 1e12)
	sess := NewSession(g)
	sess.SetEngine(eng)
	sess.SetCacheCapacity(0) // force a full solve per request

	stop := make(chan struct{})
	var wg sync.WaitGroup
	floodCtx := WithTenant(context.Background(), "flood")
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				q := (i + n) % len(termSets)
				res, err := sess.ReliabilityContext(floodCtx, termSets[q], stressOpts()...)
				switch {
				case errors.Is(err, ErrQueueFull):
				case err != nil:
					t.Errorf("flood query: %v", err)
					return
				case res.Reliability != expected[q].Reliability:
					t.Error("flood result diverged under contention")
					return
				}
			}
		}(i)
	}

	lightCtx := WithTenant(context.Background(), "light")
	for round := 0; round < 3; round++ {
		for q, ts := range termSets {
			for {
				res, err := sess.ReliabilityContext(lightCtx, ts, stressOpts()...)
				if errors.Is(err, ErrQueueFull) {
					continue // the shared queue can fill; fairness is about waits, not rejects
				}
				if err != nil {
					t.Fatalf("light query: %v", err)
				}
				assertSameResult(t, "light-tenant under flood", expected[q], res)
				break
			}
		}
	}
	close(stop)
	wg.Wait()

	light, flood := eng.TenantStats("light"), eng.TenantStats("flood")
	if light.Admitted == 0 || flood.Admitted == 0 {
		t.Fatalf("tenants not both admitted: light=%d flood=%d", light.Admitted, flood.Admitted)
	}
	if flood.RejectedOverQuota != 0 {
		t.Fatalf("huge quota rejected %d flood requests", flood.RejectedOverQuota)
	}
}

// TestRegistryMemoryPressure drives the governance loop end to end: a
// ceiling below one graph's footprint makes fetching another graph release
// the least-recently-queried one; the released graph's next query rebuilds
// the index lazily and answers bit-identically.
func TestRegistryMemoryPressure(t *testing.T) {
	eng := NewEngine(EngineConfig{Workers: 2})
	t.Cleanup(eng.Close)
	reg := NewRegistry(eng)
	ga := denseRandomGraph(t, 30, 90, 7)
	gb := denseRandomGraph(t, 30, 90, 8)
	if err := reg.Register("a", "test/a", ga); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("b", "test/b", gb); err != nil {
		t.Fatal(err)
	}
	opts := []Option{WithSamples(500), WithSeed(1)}
	terms := []int{0, 7, 29}

	reg.SetMaxBytes(1) // below any built index: every other graph is released

	sessA, err := reg.Session("a")
	if err != nil {
		t.Fatal(err)
	}
	resA1, err := sessA.Reliability(terms, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if !sessA.IndexBuilt() || sessA.IndexBuilds() != 1 {
		t.Fatalf("index not built once: built=%v builds=%d", sessA.IndexBuilt(), sessA.IndexBuilds())
	}
	if sessA.RetainedBytes() <= 0 || reg.RetainedBytes() != sessA.RetainedBytes() {
		t.Fatalf("retained bytes not accounted: session=%d registry=%d",
			sessA.RetainedBytes(), reg.RetainedBytes())
	}

	// Fetching b is the pressure event that releases a (LRU, and "b" is the
	// graph being fetched so it is never the victim).
	sessB, err := reg.Session("b")
	if err != nil {
		t.Fatal(err)
	}
	if sessA.IndexBuilt() {
		t.Fatal("pressure fetch of b did not release a's index")
	}
	if got := sessA.CacheStats().Entries; got != 0 {
		t.Fatalf("pressure release left %d cache entries", got)
	}
	if reg.MemoryEvictions() != 1 {
		t.Fatalf("MemoryEvictions = %d, want 1", reg.MemoryEvictions())
	}
	// The registration survives: a is still listed, just not materialized.
	for _, info := range reg.List() {
		if info.Name == "a" && (info.IndexBuilt || info.RetainedBytes != 0) {
			t.Fatalf("released graph still materialized: %+v", info)
		}
	}
	if _, err := sessB.Reliability(terms, opts...); err != nil {
		t.Fatal(err)
	}

	// Touching a back releases b and lazily rebuilds a, bit-identically.
	sessA2, err := reg.Session("a")
	if err != nil {
		t.Fatal(err)
	}
	if sessA2 != sessA {
		t.Fatal("re-fetch returned a different session")
	}
	if sessB.IndexBuilt() {
		t.Fatal("pressure fetch of a did not release b's index")
	}
	resA2, err := sessA.Reliability(terms, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if sessA.IndexBuilds() != 2 {
		t.Fatalf("IndexBuilds = %d, want 2 (lazy rebuild)", sessA.IndexBuilds())
	}
	assertSameResult(t, "rebuilt-after-pressure", resA1, resA2)

	// Lifting the ceiling stops the churn: both graphs stay resident.
	reg.SetMaxBytes(0)
	before := reg.MemoryEvictions()
	if _, err := reg.Session("b"); err != nil {
		t.Fatal(err)
	}
	if _, err := sessB.Reliability(terms, opts...); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Session("a"); err != nil {
		t.Fatal(err)
	}
	if !sessB.IndexBuilt() || !sessA.IndexBuilt() {
		t.Fatal("graphs released with governance disabled")
	}
	if reg.MemoryEvictions() != before {
		t.Fatalf("evictions with governance disabled: %d → %d", before, reg.MemoryEvictions())
	}
}
