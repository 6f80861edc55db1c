package telemetry

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// --- Trace ---

func TestNilTraceIsSafe(t *testing.T) {
	var tr *Trace
	tr.Add(PhasePlan, time.Second)
	tr.Extend(PhasePlan, time.Second)
	tr.Span(PhaseConstruct)()
	tr.Annotate(AnnotCacheHits, 3)
	s := tr.Snapshot()
	for p := Phase(0); p < NumPhases; p++ {
		if s.Nanos[p] != 0 || s.Counts[p] != 0 {
			t.Fatalf("nil trace recorded phase %v: %+v", p, s)
		}
	}
	if FromContext(context.Background()) != nil {
		t.Fatal("FromContext on bare context should be nil")
	}
	if ctx := NewContext(context.Background(), nil); FromContext(ctx) != nil {
		t.Fatal("NewContext with nil trace should not attach anything")
	}
}

func TestTraceRoundTrip(t *testing.T) {
	tr := New()
	ctx := NewContext(context.Background(), tr)
	got := FromContext(ctx)
	if got != tr {
		t.Fatal("FromContext did not return the attached trace")
	}
	got.Add(PhasePlan, 5*time.Millisecond)
	got.Add(PhasePlan, 3*time.Millisecond)
	got.Extend(PhasePlan, 2*time.Millisecond) // time, no span
	got.Add(PhaseSample, -time.Second)        // clock step: dropped
	got.Extend(PhaseSample, -time.Second)
	got.Annotate(AnnotSubproblems, 7)
	s := tr.Snapshot()
	if s.Nanos[PhasePlan] != int64(10*time.Millisecond) || s.Counts[PhasePlan] != 2 {
		t.Fatalf("plan accumulation wrong: %+v", s)
	}
	if s.Nanos[PhaseSample] != 0 || s.Counts[PhaseSample] != 0 {
		t.Fatalf("negative duration recorded: %+v", s)
	}
	if s.Annots[AnnotSubproblems] != 7 {
		t.Fatalf("annotation wrong: %+v", s)
	}
}

func TestPhaseNames(t *testing.T) {
	seen := map[string]bool{}
	for p := Phase(0); p < NumPhases; p++ {
		n := p.String()
		if n == "" || n == "unknown" || seen[n] {
			t.Fatalf("phase %d has bad or duplicate name %q", p, n)
		}
		seen[n] = true
	}
	if NumPhases.String() != "unknown" {
		t.Fatal("out-of-range phase should stringify to unknown")
	}
}

func TestTraceConcurrent(t *testing.T) {
	tr := New()
	var wg sync.WaitGroup
	const goroutines, adds = 8, 1000
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < adds; i++ {
				tr.Add(PhaseConstruct, time.Nanosecond)
				tr.Annotate(AnnotCacheMisses, 1)
			}
		}()
	}
	wg.Wait()
	s := tr.Snapshot()
	if s.Counts[PhaseConstruct] != goroutines*adds || s.Nanos[PhaseConstruct] != goroutines*adds {
		t.Fatalf("lost updates: %+v", s)
	}
	if s.Annots[AnnotCacheMisses] != goroutines*adds {
		t.Fatalf("lost annotations: %+v", s)
	}
}

// --- Histogram bucket semantics ---

func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_seconds", "t", []float64{0.1, 1, 10}, nil)

	// le semantics: a value exactly on a boundary belongs to that bucket.
	h.Observe(0.1)        // → le=0.1
	h.Observe(0.05)       // → le=0.1
	h.Observe(0.2)        // → le=1
	h.Observe(1.0)        // → le=1
	h.Observe(10.0)       // → le=10
	h.Observe(11.0)       // → +Inf
	h.Observe(math.NaN()) // dropped

	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
	if want := 0.1 + 0.05 + 0.2 + 1 + 10 + 11; math.Abs(h.Sum()-want) > 1e-12 {
		t.Fatalf("sum = %g, want %g", h.Sum(), want)
	}
	// Raw (non-cumulative) per-bucket counts.
	raw := make([]uint64, len(h.counts))
	for i := range h.counts {
		raw[i] = h.counts[i].Load()
	}
	want := []uint64{2, 2, 1, 1}
	for i := range want {
		if raw[i] != want[i] {
			t.Fatalf("bucket %d = %d, want %d (raw %v)", i, raw[i], want[i], raw)
		}
	}

	// Exposition renders cumulative counts.
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, line := range []string{
		`test_seconds_bucket{le="0.1"} 2`,
		`test_seconds_bucket{le="1"} 4`,
		`test_seconds_bucket{le="10"} 5`,
		`test_seconds_bucket{le="+Inf"} 6`,
		`test_seconds_count 6`,
	} {
		if !strings.Contains(out, line+"\n") {
			t.Fatalf("exposition missing %q:\n%s", line, out)
		}
	}
}

func TestHistogramRejectsBadBuckets(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-ascending buckets should panic")
		}
	}()
	NewRegistry().Histogram("bad", "b", []float64{1, 1}, nil)
}

// --- Registry / exposition ---

func TestExpositionFormat(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", "Total requests.", Labels{"graph": "default", "mode": "topk"})
	for range 3 {
		c.Inc()
	}
	g := r.Gauge("queue_depth", "Depth.", nil)
	g.Add(2)
	r.GaugeFunc("uptime_seconds", "Uptime.", nil, func() float64 { return 1.5 })
	r.CounterFunc("hits_total", "Hits.", Labels{"graph": "g\"x\\y\n"}, func() float64 { return 9 })

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP requests_total Total requests.\n# TYPE requests_total counter\n",
		`requests_total{graph="default",mode="topk"} 3` + "\n",
		"# TYPE queue_depth gauge\n",
		"queue_depth 2\n",
		"uptime_seconds 1.5\n",
		`hits_total{graph="g\"x\\y\n"} 9` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Every non-comment line must be "name{labels} value" parseable; every
	// family header must precede its samples.
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !strings.Contains(line, " ") {
			t.Fatalf("malformed sample line %q", line)
		}
	}
}

func TestGetOrCreateIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "x", Labels{"g": "1"})
	b := r.Counter("x_total", "x", Labels{"g": "1"})
	if a != b {
		t.Fatal("same (name, labels) should return the same counter")
	}
	c := r.Counter("x_total", "x", Labels{"g": "2"})
	if a == c {
		t.Fatal("different labels should be a different series")
	}
	a.Inc()
	b.Inc()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `x_total{g="1"} 2`) {
		t.Fatalf("idempotent counter lost a count:\n%s", sb.String())
	}
	// TYPE appears exactly once for the family.
	if n := strings.Count(sb.String(), "# TYPE x_total counter"); n != 1 {
		t.Fatalf("TYPE header emitted %d times", n)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m_total", "m", nil)
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering as a different kind should panic")
		}
	}()
	r.Gauge("m_total", "m", nil)
}

func TestInvalidNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid metric name should panic")
		}
	}()
	NewRegistry().Counter("bad-name", "b", nil)
}

func TestPruneLabel(t *testing.T) {
	r := NewRegistry()
	keep := r.Counter("q_total", "q", Labels{"graph": "keep"})
	r.Counter("q_total", "q", Labels{"graph": "gone"}).Inc()
	r.Histogram("lat_seconds", "l", []float64{1}, Labels{"graph": "gone"}).Observe(0.5)
	keep.Inc()
	keep.Inc()

	r.PruneLabel("graph", "gone")

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if strings.Contains(out, `graph="gone"`) {
		t.Fatalf("pruned series still exposed:\n%s", out)
	}
	if !strings.Contains(out, `q_total{graph="keep"} 2`) {
		t.Fatalf("prune removed an unrelated series:\n%s", out)
	}
	// Re-registering after prune yields a fresh zeroed series.
	if v := r.Counter("q_total", "q", Labels{"graph": "gone"}).Value(); v != 0 {
		t.Fatalf("re-created series kept old value %d", v)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "l", nil, nil)
	c := r.Counter("ops_total", "o", nil)
	g := r.Gauge("depth", "d", nil)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				h.Observe(float64(j%100) / 100)
				c.Inc()
				g.Add(1)
				g.Add(-1)
				if j%50 == 0 {
					// Concurrent scrapes and series churn.
					r.Counter("churn_total", "c", Labels{"w": string(rune('a' + i))}).Inc()
					var b strings.Builder
					if err := r.WritePrometheus(&b); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	if c.Value() != 8*500 {
		t.Fatalf("lost counter increments: %d", c.Value())
	}
	if h.Count() != 8*500 {
		t.Fatalf("lost observations: %d", h.Count())
	}
	if g.Value() != 0 {
		t.Fatalf("gauge should balance to 0, got %g", g.Value())
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		0:            "0",
		1.5:          "1.5",
		0.0005:       "0.0005",
		math.Inf(1):  "+Inf",
		math.Inf(-1): "-Inf",
		1e9:          "1e+09",
	}
	for in, want := range cases {
		if got := formatFloat(in); got != want {
			t.Errorf("formatFloat(%g) = %q, want %q", in, got, want)
		}
	}
}
