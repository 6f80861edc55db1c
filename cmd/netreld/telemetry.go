// netreld's observability layer: the Prometheus metrics catalogue served at
// GET /metrics, the request-instrumentation middleware (X-Request-Id,
// structured logs, HTTP counters), slow-query logging, and the wire shape of
// traced phase breakdowns.
//
// The catalogue has two kinds of series. Counters the engine, the sessions,
// and the per-graph request accounting already maintain are exposed as
// scrape-time funcs — no double instrumentation, no new hot-path work.
// Latency distributions (query duration by graph and mode, admission queue
// wait) are real histograms observed once per answered request, and
// per-graph phase time is accumulated from each request's telemetry trace.
// Everything per-graph carries a graph label and is pruned when the graph is
// evicted.
package main

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"netrel"
	"netrel/internal/telemetry"
)

// queryModeLabels are the mode label values of the per-graph query metrics:
// the three query modes plus "batch" — a batch request is observed once as
// a unit, since its queries share one plan-and-solve pass — plus the
// dynamic-graph requests: "whatif" (ephemeral-delta queries) and "mutate"
// (persistent deltas, whose latency is dominated by the reindex and
// invalidate phases).
var queryModeLabels = []string{"terminal-set", "conditional", "topk", "batch", "whatif", "mutate"}

// graphMetrics holds one graph's pre-created instruments: its latency
// histograms by mode label, its admission-wait histogram, and the
// phase-time accumulators behind its netrel_phase_seconds_total series.
// One graphMetrics belongs to one registration generation — requests
// carry it in their graphHandle, so a request that outlives its graph's
// eviction records into these (pruned) instruments rather than a
// re-registered generation's fresh series.
type graphMetrics struct {
	latency       map[string]*telemetry.Histogram
	admissionWait *telemetry.Histogram
	phaseNanos    [telemetry.NumPhases]atomic.Int64
}

// serverMetrics owns the registry and the HTTP instruments.
type serverMetrics struct {
	reg           *telemetry.Registry
	httpInFlight  *telemetry.Gauge
	admissionWait *telemetry.Histogram

	mu   sync.Mutex
	http map[int]*telemetry.Counter // netrel_http_requests_total by code
}

func newServerMetrics() *serverMetrics {
	reg := telemetry.NewRegistry()
	return &serverMetrics{
		reg:          reg,
		httpInFlight: reg.Gauge("netrel_http_in_flight", "HTTP requests currently being served.", nil),
		admissionWait: reg.Histogram("netrel_admission_wait_seconds",
			"Engine admission queue wait of answered requests that had to queue.", nil, nil),
		http: make(map[int]*telemetry.Counter),
	}
}

// initMetrics registers the process- and engine-level series: gauges and
// counters read from the engine's own accounting at scrape time. Per-graph
// series are added by registerGraphMetrics and pruned on eviction.
func (s *server) initMetrics() {
	reg := s.metrics.reg
	eng := s.eng
	reg.GaugeFunc("netrel_uptime_seconds", "Seconds since the daemon started.", nil,
		func() float64 { return time.Since(s.started).Seconds() })
	reg.GaugeFunc("netrel_graphs", "Registered graphs.", nil,
		func() float64 { return float64(s.reg.Len()) })
	reg.GaugeFunc("netrel_engine_workers", "Engine worker-pool size.", nil,
		func() float64 { return float64(eng.Stats().Workers) })
	reg.GaugeFunc("netrel_engine_in_flight", "Admitted, unfinished requests.", nil,
		func() float64 { return float64(eng.Stats().InFlight) })
	reg.GaugeFunc("netrel_engine_queue_depth", "Requests waiting for admission.", nil,
		func() float64 { return float64(eng.Stats().Queued) })
	reg.CounterFunc("netrel_engine_pool_assists_total",
		"Worker slots the pool executed on behalf of chunked phases.", nil,
		func() float64 { return float64(eng.Stats().Assists) })
	reg.CounterFunc("netrel_engine_admitted_total", "Requests admitted.", nil,
		func() float64 { return float64(eng.Stats().Admitted) })
	rejected := "Requests rejected at admission, by reason."
	reg.CounterFunc("netrel_engine_rejected_total", rejected, telemetry.Labels{"reason": "queue_full"},
		func() float64 { return float64(eng.Stats().RejectedQueueFull) })
	reg.CounterFunc("netrel_engine_rejected_total", rejected, telemetry.Labels{"reason": "over_cost"},
		func() float64 { return float64(eng.Stats().RejectedOverCost) })
	reg.CounterFunc("netrel_engine_rejected_total", rejected, telemetry.Labels{"reason": "over_quota"},
		func() float64 { return float64(eng.Stats().RejectedOverQuota) })
	reg.CounterFunc("netrel_engine_rejected_total", rejected, telemetry.Labels{"reason": "draining"},
		func() float64 { return float64(eng.Stats().RejectedDraining) })
	reg.CounterFunc("netrel_engine_canceled_waiting_total",
		"Requests whose context ended while queued for admission.", nil,
		func() float64 { return float64(eng.Stats().CanceledWaiting) })
	reg.CounterFunc("netrel_engine_repriced_total",
		"S2BDD requests whose post-dedup solve cost passed second-phase admission.", nil,
		func() float64 { return float64(eng.Stats().Repriced) })
	reg.CounterFunc("netrel_engine_admission_waits_total",
		"Admissions that queued for a token.", nil,
		func() float64 { return float64(eng.Stats().Waited) })
	reg.CounterFunc("netrel_engine_admission_wait_seconds_total",
		"Summed admission queue wait — with netrel_engine_admission_waits_total, the mean wait under saturation.", nil,
		func() float64 { return float64(eng.Stats().WaitedNanos) / 1e9 })
}

// registerGraphMetrics creates a freshly registered graph's series: funcs
// over its request counters, cache, batch planner, quota, and retained
// memory, plus the latency histograms and phase-time counters the request
// path observes into (returned for the graph's handle). Safe to call
// again for a re-registered name — registration is idempotent, and
// pruneGraphMetrics cleared the old series on evict.
func (s *server) registerGraphMetrics(name string, sess *netrel.Session, c *graphCounters) *graphMetrics {
	m := s.metrics
	reg := m.reg
	eng := s.eng
	gl := telemetry.Labels{"graph": name}
	counterFn := func(metric, help string, load func() uint64) {
		reg.CounterFunc(metric, help, gl, func() float64 { return float64(load()) })
	}
	queries := "Queries answered, by mode (a topk request counts once)."
	reg.CounterFunc("netrel_queries_total", queries, telemetry.Labels{"graph": name, "mode": "terminal-set"},
		func() float64 { return float64(c.modeTerminalSet.Load()) })
	reg.CounterFunc("netrel_queries_total", queries, telemetry.Labels{"graph": name, "mode": "conditional"},
		func() float64 { return float64(c.modeConditional.Load()) })
	reg.CounterFunc("netrel_queries_total", queries, telemetry.Labels{"graph": name, "mode": "topk"},
		func() float64 { return float64(c.modeTopK.Load()) })
	counterFn("netrel_failures_total", "Requests that failed.", c.failures.Load)
	counterFn("netrel_batch_requests_total", "Batch requests answered.", c.batches.Load)
	counterFn("netrel_batched_queries_total", "Queries answered inside batches.", c.batchQs.Load)
	counterFn("netrel_cache_hits_total", "Session result-cache hits.",
		func() uint64 { return sess.CacheStats().Hits })
	counterFn("netrel_cache_misses_total", "Session result-cache misses.",
		func() uint64 { return sess.CacheStats().Misses })
	reg.GaugeFunc("netrel_cache_entries", "Session result-cache entries.", gl,
		func() float64 { return float64(sess.CacheStats().Entries) })
	counterFn("netrel_planner_batches_total", "Batches planned.",
		func() uint64 { return sess.PlanStats().Batches })
	counterFn("netrel_planner_queries_total", "Queries that arrived in batches.",
		func() uint64 { return sess.PlanStats().Queries })
	counterFn("netrel_planner_planned_queries_total",
		"Distinct specs actually planned (batched queries minus plan-level dedup).",
		func() uint64 { return sess.PlanStats().Planned })
	counterFn("netrel_planner_unique_subproblems_total",
		"Subproblems solved after dedup across batch plans.",
		func() uint64 { return sess.PlanStats().UniqueSubproblems })
	counterFn("netrel_planner_subproblems_total",
		"Subproblem references across all batched queries, before dedup.",
		func() uint64 { return sess.PlanStats().TotalSubproblems })
	counterFn("netrel_samples_drawn_total",
		"Completion samples drawn across answered requests.", c.samplesDrawn.Load)
	counterFn("netrel_early_stops_total",
		"Subproblems halted by a target width before exhausting their sample schedule.",
		c.earlyStops.Load)
	counterFn("netrel_graph_mutations_total",
		"Persistent graph mutations committed (PATCH /v1/graphs/{name}/edges).",
		sess.Mutations)
	counterFn("netrel_whatif_queries_total",
		"What-if queries answered against an ephemeral delta.", c.whatifs.Load)
	counterFn("netrel_cache_invalidated_total",
		"Result-cache entries dropped by mutations' cover invalidation.",
		sess.CacheInvalidations)
	counterFn("netrel_quota_rejected_total",
		"Requests rejected because the graph's cost-quota bucket could not cover them.",
		func() uint64 { return eng.TenantStats(name).RejectedOverQuota })
	reg.GaugeFunc("netrel_graph_retained_bytes",
		"Heap retained by the graph's 2ECC index and result-cache entries.", gl,
		func() float64 { return float64(sess.RetainedBytes()) })

	gm := &graphMetrics{latency: make(map[string]*telemetry.Histogram, len(queryModeLabels))}
	for _, mode := range queryModeLabels {
		gm.latency[mode] = reg.Histogram("netrel_query_duration_seconds",
			"Wall-clock of answered requests, by mode (batches observed once as a unit).",
			nil, telemetry.Labels{"graph": name, "mode": mode})
	}
	// The per-graph wait series shares its family with the global
	// unlabeled histogram, so one scrape shows both the fleet-wide and the
	// per-tenant admission latency under saturation.
	gm.admissionWait = reg.Histogram("netrel_admission_wait_seconds",
		"Engine admission queue wait of answered requests that had to queue.", nil, gl)
	for p := telemetry.Phase(0); p < telemetry.NumPhases; p++ {
		p := p
		reg.CounterFunc("netrel_phase_seconds_total",
			"Summed wall-clock of answered requests by pipeline phase.",
			telemetry.Labels{"graph": name, "phase": p.String()},
			func() float64 { return float64(gm.phaseNanos[p].Load()) / 1e9 })
	}
	return gm
}

// pruneGraphMetrics drops every series of an evicted graph.
func (s *server) pruneGraphMetrics(name string) {
	s.metrics.reg.PruneLabel("graph", name)
}

// recordQuery folds one answered request into its graph's series: a latency
// observation under the mode label, the request trace's per-phase
// wall-clock, its sampling effort (draws made, subproblems early-stopped),
// and — when the request queued for admission — its queue wait. The
// instruments come from the request's graphHandle, captured at request
// start: a name that was evicted and re-registered mid-request resolves to
// the old generation's (pruned, orphaned) instruments, never the new
// generation's live series.
func (s *server) recordQuery(h *graphHandle, mode string, tr *telemetry.Trace, elapsed time.Duration) {
	gm := h.gm
	if lat := gm.latency[mode]; lat != nil {
		lat.Observe(elapsed.Seconds())
	}
	snap := tr.Snapshot()
	if n := snap.Annots[telemetry.AnnotSamplesDrawn]; n > 0 {
		h.c.samplesDrawn.Add(uint64(n))
	}
	if n := snap.Annots[telemetry.AnnotEarlyStops]; n > 0 {
		h.c.earlyStops.Add(uint64(n))
	}
	for p := telemetry.Phase(0); p < telemetry.NumPhases; p++ {
		if snap.Nanos[p] != 0 {
			gm.phaseNanos[p].Add(snap.Nanos[p])
		}
	}
	if snap.Counts[telemetry.PhaseAdmission] > 0 {
		wait := float64(snap.Nanos[telemetry.PhaseAdmission]) / 1e9
		s.metrics.admissionWait.Observe(wait)
		gm.admissionWait.Observe(wait)
	}
}

// phaseSeconds is the /v1/stats view of a graph's accumulated phase time.
func (gm *graphMetrics) phaseSeconds() map[string]float64 {
	out := make(map[string]float64)
	for p := telemetry.Phase(0); p < telemetry.NumPhases; p++ {
		if n := gm.phaseNanos[p].Load(); n != 0 {
			out[p.String()] = float64(n) / 1e9
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// countHTTP counts one finished response under its status code. Codes are a
// tiny set, so the under-lock getOrCreate on a new code is a one-time cost.
func (m *serverMetrics) countHTTP(code int) {
	m.mu.Lock()
	c := m.http[code]
	if c == nil {
		c = m.reg.Counter("netrel_http_requests_total",
			"HTTP responses, by status code.", telemetry.Labels{"code": strconv.Itoa(code)})
		m.http[code] = c
	}
	m.mu.Unlock()
	c.Inc()
}

func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.metrics.reg.WritePrometheus(w); err != nil {
		s.logger.LogAttrs(r.Context(), slog.LevelDebug, "metrics write failed",
			slog.String("error", err.Error()))
	}
}

// ctxKeyRequestID carries the request id so handler-side log lines (slow
// queries) correlate with the middleware's request line.
type ctxKeyRequestID struct{}

func requestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(ctxKeyRequestID{}).(string)
	return id
}

func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "unknown"
	}
	return hex.EncodeToString(b[:])
}

// statusRecorder captures the status and byte count a handler wrote.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	n, err := r.ResponseWriter.Write(p)
	r.bytes += int64(n)
	return n, err
}

// Flush forwards to the wrapped writer so SSE streaming works through the
// instrumentation middleware.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps the mux with the cross-cutting request concerns: an
// X-Request-Id (the client's, or a fresh one) echoed on the response and
// carried in the context, the HTTP gauges and counters, and one structured
// log line per request.
func (s *server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-Id")
		if id == "" {
			id = newRequestID()
		}
		w.Header().Set("X-Request-Id", id)
		ctx := context.WithValue(r.Context(), ctxKeyRequestID{}, id)
		rw := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		s.metrics.httpInFlight.Add(1)
		next.ServeHTTP(rw, r.WithContext(ctx))
		s.metrics.httpInFlight.Add(-1)
		s.metrics.countHTTP(rw.status)
		s.logger.LogAttrs(ctx, slog.LevelInfo, "request",
			slog.String("request_id", id),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", rw.status),
			slog.Int64("bytes", rw.bytes),
			slog.Float64("duration_ms", float64(time.Since(start))/float64(time.Millisecond)),
		)
	})
}

// logSlow emits a warn-level line for requests over the -slowquery
// threshold, carrying the trace's phase breakdown so the log line alone says
// where the time went.
func (s *server) logSlow(ctx context.Context, graph, mode string, tr *telemetry.Trace, elapsed time.Duration) {
	if s.def.slowQuery <= 0 || elapsed < s.def.slowQuery {
		return
	}
	s.logger.LogAttrs(ctx, slog.LevelWarn, "slow query",
		tracedAttrs(ctx, graph, mode, tr, elapsed)...)
}

// logTimeout emits a warn-level line when a request died on the
// -querytimeout deadline, with the phase breakdown showing where the
// budget went. Client disconnects (context.Canceled) and other failures
// are not deadline expirations and stay out of this log.
func (s *server) logTimeout(ctx context.Context, graph, mode string, tr *telemetry.Trace, elapsed time.Duration, err error) {
	if s.def.queryTimeout <= 0 || !errors.Is(err, context.DeadlineExceeded) {
		return
	}
	attrs := append(tracedAttrs(ctx, graph, mode, tr, elapsed),
		slog.String("timeout", s.def.queryTimeout.String()))
	s.logger.LogAttrs(ctx, slog.LevelWarn, "query timeout", attrs...)
}

// tracedAttrs is the shared shape of per-request warning logs: identity,
// wall-clock, and the trace's phase breakdown.
func tracedAttrs(ctx context.Context, graph, mode string, tr *telemetry.Trace, elapsed time.Duration) []slog.Attr {
	attrs := []slog.Attr{
		slog.String("request_id", requestIDFrom(ctx)),
		slog.String("graph", graph),
		slog.String("mode", mode),
		slog.Float64("duration_ms", float64(elapsed)/float64(time.Millisecond)),
	}
	snap := tr.Snapshot()
	for p := telemetry.Phase(0); p < telemetry.NumPhases; p++ {
		if snap.Counts[p] > 0 {
			attrs = append(attrs, slog.Float64(p.String()+"_ms", float64(snap.Nanos[p])/1e6))
		}
	}
	return attrs
}

// phaseSpanJSON and phasesJSON are the wire shape of a traced request's
// phase breakdown (netrel.PhaseBreakdown), returned when a query sets
// "trace": true.
type phaseSpanJSON struct {
	Phase      string  `json:"phase"`
	DurationMS float64 `json:"duration_ms"`
	Count      int     `json:"count"`
}

type phasesJSON struct {
	Spans              []phaseSpanJSON `json:"spans"`
	CacheHits          int64           `json:"cache_hits"`
	CacheMisses        int64           `json:"cache_misses"`
	QueriesPlanned     int64           `json:"queries_planned,omitempty"`
	QueriesDeduped     int64           `json:"queries_deduped,omitempty"`
	Subproblems        int64           `json:"subproblems,omitempty"`
	SubproblemsDeduped int64           `json:"subproblems_deduped,omitempty"`
	SamplesDrawn       int64           `json:"samples_drawn,omitempty"`
	EarlyStops         int64           `json:"early_stops,omitempty"`
	Rounds             int64           `json:"rounds,omitempty"`
}

func toPhases(b *netrel.PhaseBreakdown) *phasesJSON {
	if b == nil {
		return nil
	}
	out := &phasesJSON{
		CacheHits:          b.CacheHits,
		CacheMisses:        b.CacheMisses,
		QueriesPlanned:     b.QueriesPlanned,
		QueriesDeduped:     b.QueriesDeduped,
		Subproblems:        b.Subproblems,
		SubproblemsDeduped: b.SubproblemsDeduped,
		SamplesDrawn:       b.SamplesDrawn,
		EarlyStops:         b.EarlyStops,
		Rounds:             b.Rounds,
	}
	for _, sp := range b.Spans {
		out.Spans = append(out.Spans, phaseSpanJSON{
			Phase:      sp.Phase,
			DurationMS: float64(sp.Duration) / float64(time.Millisecond),
			Count:      sp.Count,
		})
	}
	return out
}
