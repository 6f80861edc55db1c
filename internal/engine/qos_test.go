package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// waitUntil polls cond for up to 5s — long enough for heavily loaded -race
// runs, short enough to fail fast when the condition can never hold.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func TestQuotaBucketArithmetic(t *testing.T) {
	t0 := time.Unix(1000, 0)

	// The zero bucket is "no quota": every debit succeeds, credits are no-ops.
	var free quotaBucket
	if !free.debit(1<<40, t0) {
		t.Fatal("zero bucket rejected a debit")
	}
	free.credit(10, t0)
	if free.tokens != 0 {
		t.Fatalf("zero bucket accumulated tokens: %g", free.tokens)
	}

	q := quotaBucket{rate: 10, burst: 100, tokens: 100, last: t0}
	if !q.debit(50, t0) {
		t.Fatal("debit within balance failed")
	}
	if q.tokens != 50 {
		t.Fatalf("tokens after debit = %g, want 50", q.tokens)
	}
	// Over-balance debit fails and withdraws nothing.
	if q.debit(60, t0) {
		t.Fatal("debit beyond balance succeeded")
	}
	if q.tokens != 50 {
		t.Fatalf("failed debit changed tokens: %g", q.tokens)
	}
	// 5s at rate 10 refills 50 → exactly affordable (epsilon must cover the
	// float round-off of refill arithmetic).
	if !q.debit(100, t0.Add(5*time.Second)) {
		t.Fatal("debit after refill failed")
	}
	if math.Abs(q.tokens) > 1e-6 {
		t.Fatalf("tokens after exact spend = %g, want 0", q.tokens)
	}
	// Refill and credit both cap at burst.
	q.refill(t0.Add(time.Hour))
	if q.tokens != 100 {
		t.Fatalf("refill past burst = %g, want 100", q.tokens)
	}
	q.tokens = 90
	q.credit(1000, t0.Add(time.Hour))
	if q.tokens != 100 {
		t.Fatalf("credit past burst = %g, want 100", q.tokens)
	}
	// Time never runs backwards inside the bucket: an earlier now is a
	// zero-length refill, not a negative one.
	q.tokens = 40
	q.refill(t0)
	if q.tokens != 40 {
		t.Fatalf("backwards refill changed tokens: %g", q.tokens)
	}
}

func TestAdmitOverQuota(t *testing.T) {
	// A near-zero rate makes the bucket effectively non-refilling, so the
	// arithmetic below is deterministic regardless of test duration.
	e := New(Config{Workers: 1, MaxInFlight: 4, QueueDepth: 4})
	defer e.Close()
	e.SetTenantQuota("t", 1e-9, 10)
	ctx := WithTenant(context.Background(), "t")

	rel1, err := e.Admit(ctx, 8)
	if err != nil {
		t.Fatalf("Admit within quota: %v", err)
	}
	defer rel1()
	if _, err := e.Admit(ctx, 5); !errors.Is(err, ErrOverQuota) {
		t.Fatalf("Admit beyond quota: err = %v, want ErrOverQuota", err)
	} else if !strings.Contains(err.Error(), `"t"`) {
		t.Fatalf("quota error does not name the tenant: %v", err)
	}
	rel2, err := e.Admit(ctx, 2)
	if err != nil {
		t.Fatalf("Admit of the exact remainder: %v", err)
	}
	defer rel2()

	if got := e.Stats().RejectedOverQuota; got != 1 {
		t.Fatalf("Stats().RejectedOverQuota = %d, want 1", got)
	}
	ts := e.TenantStats("t")
	if ts.RejectedOverQuota != 1 || ts.Admitted != 2 {
		t.Fatalf("TenantStats = %+v, want 1 rejection, 2 admissions", ts)
	}
	if ts.QuotaRate != 1e-9 || ts.QuotaBurst != 10 {
		t.Fatalf("TenantStats quota config = %g/%g, want 1e-9/10", ts.QuotaRate, ts.QuotaBurst)
	}
	if math.Abs(ts.QuotaTokens) > 1e-6 {
		t.Fatalf("TenantStats.QuotaTokens = %g, want ~0", ts.QuotaTokens)
	}

	// Other tenants are unaffected.
	if rel, err := e.Admit(WithTenant(context.Background(), "other"), 1<<40); err != nil {
		t.Fatalf("unrelated tenant rejected: %v", err)
	} else {
		rel()
	}

	// Clearing the quota restores unlimited cost.
	e.SetTenantQuota("t", 0, 0)
	if rel, err := e.Admit(ctx, 1<<40); err != nil {
		t.Fatalf("Admit after quota removal: %v", err)
	} else {
		rel()
	}
}

func TestQuotaAppliesInUnlimitedMode(t *testing.T) {
	e := New(Config{Workers: 1}) // MaxInFlight 0: unlimited admission
	defer e.Close()
	e.SetTenantQuota("u", 1e-9, 5)
	ctx := WithTenant(context.Background(), "u")
	if _, err := e.Admit(ctx, 6); !errors.Is(err, ErrOverQuota) {
		t.Fatalf("unlimited-mode Admit beyond quota: err = %v, want ErrOverQuota", err)
	}
	rel, err := e.Admit(ctx, 5)
	if err != nil {
		t.Fatalf("unlimited-mode Admit within quota: %v", err)
	}
	rel()
}

func TestRepriceQuota(t *testing.T) {
	e := New(Config{Workers: 1, MaxInFlight: 4, QueueDepth: 4})
	defer e.Close()
	e.SetTenantQuota("r", 1e-9, 10)
	ctx := WithTenant(context.Background(), "r")

	rel, err := e.Admit(ctx, 4) // 6 left
	if err != nil {
		t.Fatalf("Admit: %v", err)
	}
	defer rel()
	// Upward reprice debits only the increase: 12-4=8 > 6 remaining.
	if err := e.Reprice(ctx, 4, 12); !errors.Is(err, ErrOverQuota) {
		t.Fatalf("Reprice beyond quota: err = %v, want ErrOverQuota", err)
	}
	// A failed reprice withdrew nothing: 9-4=5 ≤ 6 still fits.
	if err := e.Reprice(ctx, 4, 9); err != nil {
		t.Fatalf("Reprice within quota: %v", err)
	}
	// Downward reprice credits the difference back: 1 + (9-2) = 8.
	if err := e.Reprice(ctx, 9, 2); err != nil {
		t.Fatalf("downward Reprice: %v", err)
	}
	if tok := e.TenantStats("r").QuotaTokens; math.Abs(tok-8) > 1e-6 {
		t.Fatalf("tokens after credit = %g, want 8", tok)
	}
	if err := e.Reprice(ctx, 2, 10); err != nil {
		t.Fatalf("Reprice after credit: %v", err)
	}
	ts := e.TenantStats("r")
	if ts.RejectedOverQuota != 1 {
		t.Fatalf("TenantStats.RejectedOverQuota = %d, want 1", ts.RejectedOverQuota)
	}
}

// TestAdmitNoBargingPastWaiters is the regression test for the admission
// barging bug: the old fast path raced fresh arrivals against queued
// waiters on one channel, so a sustained flood of new requests could
// starve a queued request indefinitely. Now a free token with a non-empty
// queue always goes to the queue.
func TestAdmitNoBargingPastWaiters(t *testing.T) {
	e := New(Config{Workers: 1, MaxInFlight: 1, QueueDepth: 64})
	defer e.Close()
	ctx := context.Background()

	relHold, err := e.Admit(ctx, 0)
	if err != nil {
		t.Fatalf("holder Admit: %v", err)
	}

	victim := make(chan error, 1)
	go func() {
		rel, err := e.Admit(ctx, 0)
		if err == nil {
			rel()
		}
		victim <- err
	}()
	waitUntil(t, "victim to queue", func() bool { return e.Stats().Queued == 1 })

	// Flood admission with fresh arrivals on the same tenant. Pre-fix, any
	// of these could snatch the freed token ahead of the queued victim.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if rel, err := e.Admit(ctx, 0); err == nil {
					rel()
				}
			}
		}()
	}
	time.Sleep(10 * time.Millisecond) // let the flood hammer the fast path
	relHold()

	select {
	case err := <-victim:
		if err != nil {
			t.Fatalf("queued request failed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued request starved by a flood of new arrivals")
	}
	close(stop)
	wg.Wait()
}

// TestWeightedGrantOrder pins the stride schedule exactly: with tenant a at
// weight 2 and b at weight 1, nine queued waiters drain as
// a b a a b a a b a, FIFO within each tenant.
func TestWeightedGrantOrder(t *testing.T) {
	e := New(Config{Workers: 1, MaxInFlight: 1, QueueDepth: 64})
	defer e.Close()
	e.SetTenantWeight("a", 2)
	e.SetTenantWeight("b", 1)

	// Hold the only token on a third tenant so a and b queue cleanly.
	relHold, err := e.Admit(WithTenant(context.Background(), "hold"), 0)
	if err != nil {
		t.Fatalf("holder Admit: %v", err)
	}

	got := make(chan string, 9)
	var wg sync.WaitGroup
	enqueue := func(tenant, label string) {
		t.Helper()
		before := e.Stats().Queued
		wg.Add(1)
		go func() {
			defer wg.Done()
			rel, err := e.Admit(WithTenant(context.Background(), tenant), 0)
			if err != nil {
				t.Errorf("%s: Admit: %v", label, err)
				return
			}
			got <- label
			rel()
		}()
		// Sequential arrival: each waiter is queued before the next starts,
		// so within-tenant FIFO order is the label order.
		waitUntil(t, label+" to queue", func() bool { return e.Stats().Queued == before+1 })
	}
	for _, l := range []string{"a1", "a2", "a3", "a4", "a5", "a6"} {
		enqueue("a", l)
	}
	for _, l := range []string{"b1", "b2", "b3"} {
		enqueue("b", l)
	}

	relHold()
	wg.Wait()
	close(got)
	var order []string
	for l := range got {
		order = append(order, l)
	}
	// One token serializes the drain, so channel order is grant order.
	want := []string{"a1", "b1", "a2", "a3", "b2", "a4", "a5", "b3", "a6"}
	if len(order) != len(want) {
		t.Fatalf("granted %d waiters, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("grant order = %v, want %v", order, want)
		}
	}

	a, b := e.TenantStats("a"), e.TenantStats("b")
	if a.Waited != 6 || b.Waited != 3 {
		t.Fatalf("per-tenant Waited = %d/%d, want 6/3", a.Waited, b.Waited)
	}
	if a.WaitedNanos == 0 || b.WaitedNanos == 0 {
		t.Fatal("per-tenant WaitedNanos not accumulated")
	}
}

// TestTwoTenantFairnessStress floods one tenant while another trickles:
// fair-share admission must keep every trickle request's queue wait
// bounded even though the flood keeps the queue non-empty throughout.
func TestTwoTenantFairnessStress(t *testing.T) {
	e := New(Config{Workers: 2, MaxInFlight: 2, QueueDepth: 256})
	defer e.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := WithTenant(context.Background(), "flood")
			for {
				select {
				case <-stop:
					return
				default:
				}
				rel, err := e.Admit(ctx, 1)
				if err != nil {
					continue
				}
				time.Sleep(200 * time.Microsecond) // hold the token briefly
				rel()
			}
		}()
	}

	ctx := WithTenant(context.Background(), "light")
	const trickle = 50
	var maxWait time.Duration
	for i := 0; i < trickle; i++ {
		start := time.Now()
		rel, err := e.Admit(ctx, 1)
		if err != nil {
			t.Fatalf("light request %d rejected: %v", i, err)
		}
		if d := time.Since(start); d > maxWait {
			maxWait = d
		}
		rel()
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()

	// Each wait should be ~one flood hold (hundreds of µs); seconds would
	// mean the flood starved the trickle. The bound is loose for -race CI.
	if maxWait > 2*time.Second {
		t.Fatalf("light tenant starved: max admission wait %v", maxWait)
	}
	light := e.TenantStats("light")
	if light.Admitted != trickle {
		t.Fatalf("light tenant Admitted = %d, want %d", light.Admitted, trickle)
	}
	if flood := e.TenantStats("flood"); flood.Admitted == 0 {
		t.Fatal("flood tenant never admitted")
	}
}

func TestTenantWeightAndRemove(t *testing.T) {
	e := New(Config{Workers: 1, MaxInFlight: 1, QueueDepth: 8})
	defer e.Close()
	e.SetTenantWeight("w", 0) // clamps to the minimum
	if got := e.TenantStats("w").Weight; got != 1 {
		t.Fatalf("weight after clamp = %d, want 1", got)
	}
	e.SetTenantWeight("w", 7)
	e.SetTenantQuota("w", 5, 50)
	rel, err := e.Admit(WithTenant(context.Background(), "w"), 10)
	if err != nil {
		t.Fatalf("Admit: %v", err)
	}
	rel()

	e.RemoveTenant("w")
	ts := e.TenantStats("w")
	if ts.Weight != 1 || ts.Admitted != 0 || ts.QuotaRate != 0 {
		t.Fatalf("TenantStats after RemoveTenant = %+v, want fresh", ts)
	}
	e.RemoveTenant("never-seen") // no-op
}

// TestRepriceQuotaWhileQuotasChange runs Reprice while another goroutine
// keeps adding and removing a quota: a quota set before a Reprice is
// enforced by it, a tenant without one is never limited, and once every
// quota is gone Reprice limits nobody.
func TestRepriceQuotaWhileQuotasChange(t *testing.T) {
	e := New(Config{Workers: 1})
	defer e.Close()
	free := WithTenant(context.Background(), "free")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			e.SetTenantQuota("other", float64(i%2), 5) // rate 0 removes it
		}
	}()
	const tenants = 500
	for i := 0; i < tenants; i++ {
		name := fmt.Sprintf("t%d", i)
		e.SetTenantQuota(name, 1e-9, 10)
		ctx := WithTenant(context.Background(), name)
		if err := e.Reprice(ctx, 0, 11); !errors.Is(err, ErrOverQuota) {
			t.Fatalf("tenant %s: Reprice beyond its quota: err = %v, want ErrOverQuota", name, err)
		}
		if err := e.Reprice(free, 0, 1<<40); err != nil {
			t.Fatalf("quota-free tenant: Reprice: %v", err)
		}
	}
	close(stop)
	wg.Wait()
	if n := e.TenantStats("t0").RejectedOverQuota; n != 1 {
		t.Fatalf("t0 rejected %d reprices, want 1", n)
	}
	e.SetTenantQuota("other", 0, 0)
	for i := 0; i < tenants; i++ {
		e.RemoveTenant(fmt.Sprintf("t%d", i))
	}
	if n := e.quotas.Load(); n != 0 {
		t.Fatalf("%d tenants counted with a quota after all were removed", n)
	}
	if err := e.Reprice(WithTenant(context.Background(), "t0"), 0, 11); err != nil {
		t.Fatalf("Reprice after the quota was removed: %v", err)
	}
	if st := e.Stats(); st.Repriced != tenants+1 || st.RejectedOverQuota != tenants {
		t.Fatalf("repriced/rejected = %d/%d, want %d/%d", st.Repriced, st.RejectedOverQuota, tenants+1, tenants)
	}
}
