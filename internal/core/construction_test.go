package core

// Cancellation tests for the *construction* phase (PR 4 satellite): since
// layer expansion went chunk-parallel, ctx is checked per layer and per
// expansion chunk, so a NewSampler cancelled mid-layer-expansion must
// return promptly, and — construction being deterministic per seed — a
// retried run must be bit-identical to an uninterrupted one.

import (
	"context"
	"errors"
	"math/rand/v2"
	"testing"
	"time"

	"netrel/internal/ugraph"
)

// constructionWorkload is a bounds-only configuration (Samples 0) on a
// dense graph: the stall rule is inert without a sample budget, so the run
// expands every layer at the width cap and construction is the entire
// computation. Width 512 splits each full layer into 8 expansion chunks.
func constructionWorkload(tb testing.TB) (*ugraph.Graph, ugraph.Terminals, Config) {
	tb.Helper()
	r := rand.New(rand.NewPCG(99, 0xc0ffee))
	g := randConnected(r, 80, 800)
	ts, err := ugraph.NewTerminals(g, []int{0, 30, 60, 79})
	if err != nil {
		tb.Fatal(err)
	}
	cfg := Config{
		MaxWidth: 512,
		Samples:  0,
		Seed:     12,
		Order:    bfsOrder(g, ts),
		Workers:  4,
	}
	return g, ts, cfg
}

func TestConstructionCancelledAtEntry(t *testing.T) {
	g, ts, cfg := constructionWorkload(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := solve(ctx, g, ts, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled construction returned %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("pre-cancelled construction took %v", d)
	}

	// The context is checked before planning: a plan that would fail (a
	// terminal with no edge) does not mask the cancellation.
	iso := ugraph.New(3)
	if _, err := iso.AddEdge(0, 1, 0.5); err != nil {
		t.Fatal(err)
	}
	its, err := ugraph.NewTerminals(iso, []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSampler(ctx, iso, its, Config{Samples: 10}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled NewSampler on an unplannable query returned %v, want context.Canceled", err)
	}
}

func TestConstructionCancelMidExpansionRetriesBitIdentical(t *testing.T) {
	g, ts, cfg := constructionWorkload(t)

	// Uninterrupted reference (and the full wall-clock, which the
	// promptness assertion is calibrated against).
	refStart := time.Now()
	ref, err := solve(context.Background(), g, ts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	full := time.Since(refStart)
	if ref.Flushed || ref.LayersProcessed != g.M() {
		t.Fatalf("workload no longer construction-bound: flushed=%v layers=%d/%d",
			ref.Flushed, ref.LayersProcessed, g.M())
	}

	// Interrupt with tighter and tighter deadlines until one cancels
	// mid-construction (the first may finish in time on a fast machine).
	cancelled := false
	for frac := int64(2); frac <= 1<<20; frac *= 2 {
		deadline := full / time.Duration(frac)
		if deadline <= 0 {
			break
		}
		ctx, cancel := context.WithTimeout(context.Background(), deadline)
		start := time.Now()
		_, err := solve(ctx, g, ts, cfg)
		cancel()
		if err == nil {
			continue
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("cancelled construction returned %v", err)
		}
		// Prompt return: chunk-granular checks mean the overshoot past the
		// deadline is bounded by one chunk of work, far under a full run.
		if waited := time.Since(start); waited > deadline+full/2+200*time.Millisecond {
			t.Fatalf("cancelled construction returned after %v (deadline %v, full run %v)",
				waited, deadline, full)
		}
		cancelled = true
		break
	}
	if !cancelled {
		t.Fatal("no deadline was tight enough to interrupt construction")
	}

	// A retry after cancellation is bit-identical to the uninterrupted run
	// (Result is a comparable struct: scalars and xfloat.F only).
	retry, err := solve(context.Background(), g, ts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if retry != ref {
		t.Fatalf("retry after cancellation diverged:\n got %+v\nwant %+v", retry, ref)
	}
}
