// Command netreld serves k-terminal reliability queries over HTTP: the
// serving-scale entry point of the module. It hosts a netrel.Registry of
// named graphs — one loaded at startup (from a TSV file or a bundled
// synthetic dataset, registered as "default"), more registered at runtime
// over the API — and answers single and batch queries against any of them.
// All graphs share one execution engine: a bounded worker pool sized to
// the machine plus an admission queue, so N concurrent requests never
// oversubscribe the host (goroutines stay bounded by pool + in-flight
// requests, not requests × workers), saturation queues up to -queue
// requests and 503s the rest, and a per-request cost cap rejects oversized
// work in two phases — every query's (small) planning cost before planning
// and its deduplicated solve cost directly after it, so a batch of
// near-identical queries is billed for the unique work it causes, not its
// raw query count.
//
// Usage:
//
//	netreld -dataset Tokyo -scale small -addr :8080
//	netreld -graph g.tsv -cache 8192 -inflight 8 -queue 64
//
// Endpoints:
//
//	GET    /healthz            liveness/readiness probe (503 "draining" during shutdown)
//	GET    /metrics            Prometheus text exposition of the full catalogue
//	GET    /v1/stats           engine gauges + per-graph counters, caches, phase times
//	GET    /v1/graphs          list registered graphs
//	POST   /v1/graphs          register {"name":"g2","tsv":"..."} or
//	                           {"name":"g2","dataset":"Karate","scale":"small"}
//	DELETE /v1/graphs/{name}   evict a graph
//	PATCH  /v1/graphs/{name}   hot-reload QoS: {"weight":4,"quota_rate":1e6}
//	PATCH  /v1/graphs/{name}/edges  mutate in place:
//	                           {"set_prob":[{"edge":3,"p":0.9}],"remove":[7],"add":[{"u":0,"v":5,"p":0.5}]}
//	POST   /v1/reliability     {"graph":"g2","terminals":[0,5],"samples":10000}
//	POST   /v1/batch           {"queries":[{"terminals":[0,5]},...],"samples":1000}
//	POST   /v1/topk            {"terminals":[0],"k":3,"evidence":[{"edge":2,"up":true}]}
//	POST   /v1/whatif          {"delta":{"set_prob":[{"edge":3,"p":0.9}]},"terminals":[0,5]}
//
// Dynamic graphs: PATCH /v1/graphs/{name}/edges applies a delta
// (probability updates, removals, additions) to a registered graph in
// place — the graph version advances, the 2ECC index is kept or rebuilt,
// and the result cache keeps every entry whose component the delta did
// not touch. POST /v1/whatif answers one query as if a
// delta had been applied, without applying it: bit-identical to mutating
// for real and querying cold, but subproblems outside the delta's
// components are answered from the graph's shared result cache (the
// response's own cache_hits/cache_misses show the reuse).
//
// Queries are mode-polymorphic: a query's "mode" is "terminal-set" (the
// default), "conditional" — terminal-set reliability given "evidence", a
// list of {"edge","up"} edge observations — or, on /v1/topk only, "topk".
// Batches may mix terminal-set and conditional queries. Terminal and
// evidence indices are validated up front; an out-of-range index fails the
// request with a 400 naming the offending index and the query's mode.
//
// A request body is exactly one JSON object; any bytes after it other than
// whitespace fail the request with a 400. The "graph" field defaults to
// "default". Every response is JSON; results
// are deterministic per seed regardless of concurrency, pool size, or
// worker count. Request contexts propagate into the solver, so a client
// that disconnects cancels its computation at the next chunk boundary. On
// SIGINT/SIGTERM the daemon drains: /healthz flips to 503 "draining",
// queued requests get 503s immediately, in-flight queries finish (up to
// -drain), then the listener closes.
//
// Anytime queries: sampling requests (single and batch) may set "rounds" —
// the sample budget is then spent in that many adaptive rounds, each
// allocated where the bound gap (weighted by batch fan-in) is largest — and
// "target_width", which stops a subproblem's sampling once its anytime
// interval is at most that wide. With "stream": true the response becomes a
// Server-Sent-Events stream: one "progress" event per round boundary
// carrying monotonically tightening [lower, upper] bounds per query, then a
// terminal "result" event with the normal JSON body (or an "error" event).
// With "target_width" unset the rounds are invisible in the result — it is
// bit-identical to the default single round per seed.
//
// Observability: every query request may set "trace": true to receive a
// per-phase wall-clock breakdown alongside its result; tracing is
// observation-only, so traced and untraced results are bit-identical per
// seed. Each response carries an X-Request-Id (echoing the client's, if
// given) that correlates with the structured request log on stderr; queries
// slower than -slowquery are logged at warn level with their phase times.
// GET /metrics serves the Prometheus catalogue — engine admission, per-graph
// caches and planner dedup, per-graph-per-mode latency histograms, and phase
// seconds — and -debugaddr exposes net/http/pprof on a separate listener.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	netpprof "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"netrel"
	"netrel/datasets"
	"netrel/internal/telemetry"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		graphPath    = flag.String("graph", "", "graph TSV file (overrides -dataset)")
		dataset      = flag.String("dataset", "Karate", "bundled dataset abbreviation (see datasets.Catalog)")
		scale        = flag.String("scale", "small", "dataset scale: small|medium|full")
		dataSeed     = flag.Uint64("dataseed", 42, "dataset generator seed")
		cacheCap     = flag.Int("cache", netrel.DefaultCacheCapacity, "per-graph result-cache capacity (0 disables)")
		samples      = flag.Int("samples", 10_000, "default sample budget s")
		width        = flag.Int("width", 10_000, "default maximum S2BDD width w")
		workers      = flag.Int("workers", 0, "default per-request worker budget (0 = GOMAXPROCS)")
		maxSamples   = flag.Int("maxsamples", 1_000_000, "per-request sample budget cap (0 = no cap)")
		maxWidth     = flag.Int("maxwidth", 1_000_000, "per-request S2BDD width cap (0 = no cap)")
		maxQueries   = flag.Int("maxqueries", 4096, "per-batch query count cap (0 = no cap)")
		pool         = flag.Int("pool", 0, "engine worker-pool size (0 = GOMAXPROCS)")
		inFlight     = flag.Int("inflight", 8, "max concurrently solving requests (0 = unlimited)")
		queue        = flag.Int("queue", 64, "admission queue depth beyond -inflight")
		maxCost      = flag.Int64("maxcost", 100_000_000, "per-request cost cap in sample-draw-equivalent units: every request is checked pre-planning at its planning cost and post-planning at its deduped solve cost, samples+construction budget per unique subproblem (0 = no cap)")
		maxBody      = flag.Int64("maxbody", 8<<20, "request body size cap in bytes")
		maxGraphs    = flag.Int("maxgraphs", 64, "max registered graphs (0 = no cap)")
		maxBytes     = flag.Int64("maxbytes", 0, "registry retained-memory ceiling in bytes: under pressure the least-recently-queried graphs' indexes and result caches are released and lazily rebuilt on their next query (0 = unlimited)")
		queryTimeout = flag.Duration("querytimeout", 0, "per-request server-side deadline; requests over it are cancelled and answered 504 (0 = off)")
		quotaRate    = flag.Float64("quotarate", 0, "default per-graph cost quota refill rate in sample-draw-equivalent units per second; over-quota requests get 429 (0 = no quota)")
		quotaBurst   = flag.Float64("quotaburst", 0, "default per-graph cost quota burst in sample-draw-equivalent units (0 = one second of refill)")
		drain        = flag.Duration("drain", 30*time.Second, "graceful-shutdown drain timeout")
		slowQuery    = flag.Duration("slowquery", time.Second, "log queries slower than this at warn level (0 disables)")
		debugAddr    = flag.String("debugaddr", "", "pprof debug listen address, kept off the serving port (empty disables)")
		logLevel     = flag.String("loglevel", "info", "log level: debug|info|warn|error")
	)
	flag.Parse()

	level, err := parseLogLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "netreld:", err)
		os.Exit(1)
	}
	logger := slog.New(slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	slog.SetDefault(logger)

	g, source, err := loadGraph(*graphPath, *dataset, *scale, *dataSeed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "netreld:", err)
		os.Exit(1)
	}
	eng := netrel.NewEngine(netrel.EngineConfig{
		Workers:     *pool,
		MaxInFlight: *inFlight,
		QueueDepth:  *queue,
		MaxCost:     *maxCost,
	})
	srv, err := newServer(eng, defaults{
		samples:      *samples,
		width:        *width,
		workers:      *workers,
		maxSamples:   *maxSamples,
		maxWidth:     *maxWidth,
		maxQueries:   *maxQueries,
		maxBody:      *maxBody,
		maxGraphs:    *maxGraphs,
		maxBytes:     *maxBytes,
		cacheCap:     *cacheCap,
		slowQuery:    *slowQuery,
		queryTimeout: *queryTimeout,
		quotaRate:    *quotaRate,
		quotaBurst:   *quotaBurst,
	}, logger)
	if err != nil {
		fmt.Fprintln(os.Stderr, "netreld:", err)
		os.Exit(1)
	}
	if err := srv.register(defaultGraphName, source, g, graphQoS{}); err != nil {
		fmt.Fprintln(os.Stderr, "netreld:", err)
		os.Exit(1)
	}
	logger.Info("serving",
		"source", source, "vertices", g.N(), "edges", g.M(), "addr", *addr,
		"pool", eng.Stats().Workers, "inflight", *inFlight, "queue", *queue)
	hs := &http.Server{
		Addr:    *addr,
		Handler: srv.handler(),
		// Computations can legitimately run long, so there is no write
		// timeout; header/idle timeouts keep slow or stalled clients from
		// pinning connections.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	// The pprof listener stays off the serving address: profiles are an
	// operator tool, not part of the public API, and binding them
	// separately keeps them firewallable.
	if *debugAddr != "" {
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", netpprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", netpprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", netpprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", netpprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", netpprof.Trace)
		ds := &http.Server{Addr: *debugAddr, Handler: dmux, ReadHeaderTimeout: 10 * time.Second}
		defer ds.Close()
		go func() {
			logger.Info("pprof listening", "addr", *debugAddr)
			if err := ds.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("pprof listener failed", "error", err.Error())
			}
		}()
	}

	// Graceful shutdown: on SIGINT/SIGTERM, stop admitting (queued
	// requests 503 immediately via the engine drain, /healthz flips to
	// 503 "draining" so load balancers stop routing here), let in-flight
	// queries finish within the drain timeout, then close the listener.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	select {
	case err := <-errCh:
		logger.Error("listener failed", "error", err.Error())
		os.Exit(1)
	case <-ctx.Done():
	}
	logger.Info("signal received, draining", "timeout", drain.String())
	srv.drain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		logger.Warn("drain timeout exceeded", "error", err.Error())
	}
	eng.Close()
	logger.Info("bye")
}

// parseLogLevel maps the -loglevel flag to a slog level.
func parseLogLevel(s string) (slog.Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug, nil
	case "", "info":
		return slog.LevelInfo, nil
	case "warn":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("unknown log level %q (want debug|info|warn|error)", s)
}

// defaultGraphName is the registry key of the graph loaded at startup and
// the fallback for requests that don't name one.
const defaultGraphName = "default"

func loadGraph(path, dataset, scale string, seed uint64) (*netrel.Graph, string, error) {
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, "", err
		}
		defer f.Close()
		g, err := netrel.ReadGraph(f)
		if err != nil {
			return nil, "", err
		}
		return g, path, nil
	}
	sc, err := datasets.ParseScale(scale)
	if err != nil {
		return nil, "", err
	}
	g, err := datasets.Generate(dataset, sc, seed)
	if err != nil {
		return nil, "", err
	}
	return g, fmt.Sprintf("%s/%s", dataset, scale), nil
}

// defaults are the daemon-level option defaults a request may override,
// plus the per-request cost caps it may not exceed.
type defaults struct {
	samples    int
	width      int
	workers    int
	maxSamples int
	maxWidth   int
	maxQueries int
	maxBody    int64
	maxGraphs  int
	maxBytes   int64
	cacheCap   int
	slowQuery  time.Duration
	// queryTimeout is the server-side per-request deadline (-querytimeout;
	// 0 = off): requests over it are cancelled mid-solve and answered 504.
	queryTimeout time.Duration
	// quotaRate and quotaBurst are the default per-graph cost quota
	// (-quotarate/-quotaburst) applied to graphs that don't choose their
	// own at registration; rate 0 means no quota.
	quotaRate, quotaBurst float64
}

// graphCounters tracks per-graph request outcomes, including how many
// queries of each mode were answered (topk counts one per ranking request,
// not per candidate it expanded into).
type graphCounters struct {
	queries  atomic.Uint64 // single queries answered
	batches  atomic.Uint64 // batch requests answered
	batchQs  atomic.Uint64 // queries answered inside batches
	whatifs  atomic.Uint64 // what-if queries answered
	failures atomic.Uint64

	// samplesDrawn counts completion draws across answered requests (from
	// the request traces); earlyStops the subproblems a target width halted
	// before their schedule was exhausted.
	samplesDrawn atomic.Uint64
	earlyStops   atomic.Uint64

	modeTerminalSet atomic.Uint64
	modeConditional atomic.Uint64
	modeTopK        atomic.Uint64
}

// countMode attributes n answered queries to their mode.
func (c *graphCounters) countMode(m netrel.QueryMode, n uint64) {
	switch m {
	case netrel.ModeConditional:
		c.modeConditional.Add(n)
	case netrel.ModeTopK:
		c.modeTopK.Add(n)
	default:
		c.modeTerminalSet.Add(n)
	}
}

// graphHandle binds one registration generation of a graph: the session,
// its request counters, and its metric instruments, created together by
// register and fetched together at the start of each request. Handlers
// hold the handle for the whole request, so a graph evicted and
// re-registered under the same name mid-request never receives the old
// generation's writes — they land on the old handle's instruments, whose
// series were pruned with the old generation (orphaned and harmless),
// instead of interleaving into the new generation's freshly created
// series.
type graphHandle struct {
	name string
	sess *netrel.Session
	c    *graphCounters
	gm   *graphMetrics
}

// graphQoS is a graph's scheduling and quota configuration at
// registration; zero fields fall back to the daemon defaults (weight 1,
// -quotarate/-quotaburst).
type graphQoS struct {
	weight     int
	quotaRate  float64
	quotaBurst float64
}

// server owns the registry, the engine, the metrics catalogue, and the
// per-graph handles.
type server struct {
	reg      *netrel.Registry
	eng      *netrel.Engine
	def      defaults
	logger   *slog.Logger
	metrics  *serverMetrics
	started  time.Time
	draining atomic.Bool

	mu     sync.RWMutex
	graphs map[string]*graphHandle
}

// newServer builds the server around the engine. A nil logger discards logs
// (the test configuration); netreld's main passes its structured logger.
func newServer(eng *netrel.Engine, def defaults, logger *slog.Logger) (*server, error) {
	if def.maxBody <= 0 {
		return nil, errors.New("maxbody must be positive")
	}
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	reg := netrel.NewRegistry(eng)
	reg.SetCacheCapacity(def.cacheCap)
	reg.SetMaxBytes(def.maxBytes)
	s := &server{
		reg:     reg,
		eng:     eng,
		def:     def,
		logger:  logger,
		metrics: newServerMetrics(),
		started: time.Now(),
		graphs:  make(map[string]*graphHandle),
	}
	s.initMetrics()
	return s, nil
}

// errGraphLimit reports a registration refused because -maxgraphs tenants
// already exist (a capacity condition, not a name conflict).
var errGraphLimit = errors.New("graph limit reached")

// register adds a graph to the registry with its counters, metrics, and
// QoS configuration (weight and quota, falling back to the daemon
// defaults). The whole check-and-register sequence holds s.mu so two
// concurrent registrations cannot both squeeze past the -maxgraphs limit
// and the handle appears atomically with the registration; the per-graph
// cache capacity is applied by the registry before the session becomes
// visible.
func (s *server) register(name, source string, g *netrel.Graph, qos graphQoS) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.def.maxGraphs > 0 && s.reg.Len() >= s.def.maxGraphs {
		return fmt.Errorf("%w: %d graphs registered", errGraphLimit, s.def.maxGraphs)
	}
	if err := s.reg.Register(name, source, g); err != nil {
		return err
	}
	sess, err := s.reg.Session(name)
	if err != nil {
		return err // unreachable: registered under the same lock
	}
	if qos.weight > 0 {
		s.eng.SetTenantWeight(name, qos.weight)
	}
	rate, burst := qos.quotaRate, qos.quotaBurst
	if rate <= 0 {
		rate, burst = s.def.quotaRate, s.def.quotaBurst
	}
	if rate > 0 {
		s.eng.SetTenantQuota(name, rate, burst)
	}
	c := &graphCounters{}
	gm := s.registerGraphMetrics(name, sess, c)
	s.graphs[name] = &graphHandle{name: name, sess: sess, c: c, gm: gm}
	return nil
}

// graph fetches a request's graph handle — session, counters, and metric
// instruments of one registration generation, resolved once at request
// start ("" = the default graph) — or answers 404 and returns nil. The
// fetch counts as a registry touch, driving last-query recency and
// memory-pressure enforcement.
func (s *server) graph(w http.ResponseWriter, name string) *graphHandle {
	if name == "" {
		name = defaultGraphName
	}
	s.mu.RLock()
	h := s.graphs[name]
	s.mu.RUnlock()
	if h == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("%w: %q", netrel.ErrGraphNotFound, name))
		return nil
	}
	// Touch the registry (recency + pressure enforcement). Under
	// evict/re-register churn the registry may already hold a newer
	// generation than h — this request still runs on h's session and
	// records into h's instruments, never the new generation's.
	if _, err := s.reg.Session(name); err != nil {
		writeError(w, http.StatusNotFound, err) // evicted between the handle fetch and now
		return nil
	}
	return h
}

func (s *server) handleFor(name string) *graphHandle {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.graphs[name] // nil for just-evicted graphs: callers tolerate
}

// drain flips the server into shutdown mode: new requests 503 and the
// engine fails its admission queue.
func (s *server) drain() {
	s.draining.Store(true)
	s.eng.Drain()
}

func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/graphs", s.handleListGraphs)
	mux.HandleFunc("POST /v1/graphs", s.handleRegisterGraph)
	mux.HandleFunc("DELETE /v1/graphs/{name}", s.handleEvictGraph)
	mux.HandleFunc("PATCH /v1/graphs/{name}", s.handlePatchGraph)
	mux.HandleFunc("PATCH /v1/graphs/{name}/edges", s.handleMutateGraph)
	mux.HandleFunc("POST /v1/reliability", s.handleReliability)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("POST /v1/topk", s.handleTopK)
	mux.HandleFunc("POST /v1/whatif", s.handleWhatIf)
	return s.instrument(mux)
}

// evidenceJSON is one edge observation of a conditional (or conditioned
// top-k) query: edge index in graph edge order, observed up or down.
type evidenceJSON struct {
	Edge int  `json:"edge"`
	Up   bool `json:"up"`
}

// The request fields the query endpoints share are embedded structs, which
// encoding/json flattens into the enclosing object (DisallowUnknownFields
// still applies to them). A missing graph falls back to "default".

// specJSON is one query's spec: its mode — "terminal-set" (the default) or
// "conditional" — terminals, and evidence.
type specJSON struct {
	Mode      string         `json:"mode,omitempty"`
	Terminals []int          `json:"terminals"`
	Evidence  []evidenceJSON `json:"evidence,omitempty"`
}

// samplingJSON holds the solve knobs of every query endpoint; zero values
// fall back to the daemon defaults. "trace" echoes the request's phase
// breakdown on each result (batch- or scan-wide for batches and top-k).
type samplingJSON struct {
	Samples   int    `json:"samples,omitempty"`
	Width     int    `json:"width,omitempty"`
	Seed      uint64 `json:"seed,omitempty"`
	Workers   int    `json:"workers,omitempty"`
	Estimator string `json:"estimator,omitempty"` // "mc" (default) or "ht"
	Trace     bool   `json:"trace,omitempty"`
}

// anytimeJSON holds the anytime knobs of /v1/reliability and /v1/batch —
// "rounds" (adaptive sampling rounds), "target_width" (stop sampling at
// this interval width) and "stream" (SSE progress per round, then the
// result). Unset, every schedule is drawn whole in a single round.
type anytimeJSON struct {
	Rounds      int     `json:"rounds,omitempty"`
	TargetWidth float64 `json:"target_width,omitempty"`
	Stream      bool    `json:"stream,omitempty"`
}

// queryRequest is the JSON body of a single reliability query.
type queryRequest struct {
	Graph string `json:"graph,omitempty"`
	specJSON
	samplingJSON
	anytimeJSON
	Exact bool `json:"exact,omitempty"`
}

type batchRequest struct {
	Graph   string     `json:"graph,omitempty"`
	Queries []specJSON `json:"queries"`
	samplingJSON
	anytimeJSON
}

// topkRequest ranks the k most reliable extension vertices of a base
// terminal set, optionally conditioned on evidence.
type topkRequest struct {
	Graph     string         `json:"graph,omitempty"`
	Terminals []int          `json:"terminals"`
	K         int            `json:"k"`
	Evidence  []evidenceJSON `json:"evidence,omitempty"`
	samplingJSON
}

// registerRequest registers a new graph: either inline TSV content or a
// bundled dataset spec, plus optional QoS settings — a fair-share weight
// and a cost-quota token bucket (sample-draw-equivalent units; rate 0
// falls back to the daemon's -quotarate/-quotaburst defaults).
type registerRequest struct {
	Name       string  `json:"name"`
	TSV        string  `json:"tsv,omitempty"`
	Dataset    string  `json:"dataset,omitempty"`
	Scale      string  `json:"scale,omitempty"`
	Seed       uint64  `json:"seed,omitempty"`
	Weight     int     `json:"weight,omitempty"`
	QuotaRate  float64 `json:"quota_rate,omitempty"`
	QuotaBurst float64 `json:"quota_burst,omitempty"`
}

// queryResponse serializes a netrel.Result.
type queryResponse struct {
	Reliability float64     `json:"reliability"`
	Log10       *float64    `json:"log10,omitempty"` // omitted when -Inf (R = 0)
	Lower       float64     `json:"lower"`
	Upper       float64     `json:"upper"`
	Exact       bool        `json:"exact"`
	Variance    float64     `json:"variance"`
	SamplesUsed int         `json:"samples_used"`
	Subproblems int         `json:"subproblems"`
	Bridges     int         `json:"bridges,omitempty"`
	DurationMS  float64     `json:"duration_ms"`
	Phases      *phasesJSON `json:"phases,omitempty"` // only when the request set "trace"
}

type cacheResponse struct {
	Hits     uint64 `json:"hits"`
	Misses   uint64 `json:"misses"`
	Entries  int    `json:"entries"`
	Capacity int    `json:"capacity"`
}

// plannerResponse reports batch-planner dedup effectiveness: of the queries
// that arrived in batches, how many distinct terminal sets were actually
// planned and how far subproblem dedup compressed the solve schedule.
type plannerResponse struct {
	Batches           uint64 `json:"batches"`
	Queries           uint64 `json:"queries"`
	Planned           uint64 `json:"planned"`
	DedupedQueries    uint64 `json:"deduped_queries"`
	UniqueSubproblems uint64 `json:"unique_subproblems"`
	TotalSubproblems  uint64 `json:"total_subproblems"`
}

// modesResponse counts answered queries by mode (a topk request counts
// once, regardless of how many candidates it scanned).
type modesResponse struct {
	TerminalSet uint64 `json:"terminal_set"`
	Conditional uint64 `json:"conditional"`
	TopK        uint64 `json:"topk"`
}

// qosResponse is a graph's tenant view in /v1/stats: its fair-share
// weight, quota configuration and bucket level, and per-tenant admission
// outcomes.
type qosResponse struct {
	Weight          int     `json:"weight"`
	QuotaRate       float64 `json:"quota_rate,omitempty"`
	QuotaBurst      float64 `json:"quota_burst,omitempty"`
	QuotaTokens     float64 `json:"quota_tokens,omitempty"`
	QuotaRejected   uint64  `json:"quota_rejected"`
	Queued          int     `json:"queued"`
	AdmissionWaits  uint64  `json:"admission_waits"`
	AdmissionWaitMS float64 `json:"admission_wait_ms"`
}

type graphStatsResponse struct {
	Source   string `json:"source"`
	Vertices int    `json:"vertices"`
	Edges    int    `json:"edges"`
	// Version counts the mutations applied since registration; Mutations
	// and WhatIfQueries count the dynamic-graph requests answered, and
	// CacheInvalidated the result-cache entries dropped by mutations'
	// cover invalidation.
	Version          uint64 `json:"version"`
	Mutations        uint64 `json:"mutations"`
	WhatIfQueries    uint64 `json:"whatif_queries"`
	CacheInvalidated uint64 `json:"cache_invalidated"`
	IndexBuilt       bool   `json:"index_built"`
	// RetainedBytes is the heap held by the graph's 2ECC index and result
	// cache; IndexBuilds counts index constructions (>1 means
	// memory-pressure releases forced lazy rebuilds).
	RetainedBytes  int64  `json:"retained_bytes"`
	IndexBuilds    uint64 `json:"index_builds"`
	Queries        uint64 `json:"queries"`
	BatchRequests  uint64 `json:"batch_requests"`
	BatchedQueries uint64 `json:"batched_queries"`
	Failures       uint64 `json:"failures"`
	// SamplesDrawn is the graph's accumulated completion-draw count;
	// EarlyStops counts subproblems a "target_width" halted before their
	// schedule was exhausted.
	SamplesDrawn uint64          `json:"samples_drawn"`
	EarlyStops   uint64          `json:"early_stops"`
	Modes        modesResponse   `json:"modes"`
	Cache        cacheResponse   `json:"cache"`
	Planner      plannerResponse `json:"planner"`
	// PhaseSeconds is the graph's accumulated pipeline phase wall-clock
	// (the /v1/stats view of netrel_phase_seconds_total); omitted until a
	// query has run.
	PhaseSeconds map[string]float64 `json:"phase_seconds,omitempty"`
	QoS          qosResponse        `json:"qos"`
}

type engineStatsResponse struct {
	Workers           int    `json:"workers"`
	PoolAssists       uint64 `json:"pool_assists"`
	InFlight          int    `json:"in_flight"`
	QueueDepth        int    `json:"queue_depth"`
	MaxInFlight       int    `json:"max_in_flight"`
	QueueCapacity     int    `json:"queue_capacity"`
	Admitted          uint64 `json:"admitted"`
	RejectedQueueFull uint64 `json:"rejected_queue_full"`
	RejectedOverCost  uint64 `json:"rejected_over_cost"`
	RejectedOverQuota uint64 `json:"rejected_over_quota"`
	RejectedDraining  uint64 `json:"rejected_draining"`
	CanceledWaiting   uint64 `json:"canceled_waiting"`
	Repriced          uint64 `json:"repriced"`
	// AdmissionWaits counts admissions that queued for a token;
	// AdmissionWaitMS is their summed queue wait — together, the mean
	// admission latency under saturation.
	AdmissionWaits  uint64  `json:"admission_waits"`
	AdmissionWaitMS float64 `json:"admission_wait_ms"`
}

func toResponse(r *netrel.Result) queryResponse {
	out := queryResponse{
		Reliability: r.Reliability,
		Lower:       r.Lower,
		Upper:       r.Upper,
		Exact:       r.Exact,
		Variance:    r.Variance,
		SamplesUsed: r.SamplesUsed,
		Subproblems: r.Subproblems,
		DurationMS:  float64(r.Duration) / float64(time.Millisecond),
	}
	if !math.IsInf(r.Log10, -1) {
		l := r.Log10
		out.Log10 = &l
	}
	if r.Preprocess != nil {
		out.Bridges = r.Preprocess.Bridges
	}
	out.Phases = toPhases(r.Phases)
	return out
}

func toQoSResponse(ts netrel.TenantStats) qosResponse {
	return qosResponse{
		Weight:          ts.Weight,
		QuotaRate:       ts.QuotaRate,
		QuotaBurst:      ts.QuotaBurst,
		QuotaTokens:     ts.QuotaTokens,
		QuotaRejected:   ts.RejectedOverQuota,
		Queued:          ts.Queued,
		AdmissionWaits:  ts.Waited,
		AdmissionWaitMS: float64(ts.WaitedNanos) / 1e6,
	}
}

func toCacheResponse(st netrel.CacheStats) cacheResponse {
	return cacheResponse{Hits: st.Hits, Misses: st.Misses, Entries: st.Entries, Capacity: st.Capacity}
}

func toPlannerResponse(st netrel.PlanStats) plannerResponse {
	// The counters are loaded independently, so a batch finishing between
	// the Queries and Planned loads can make Planned momentarily exceed
	// Queries; clamp rather than wrap.
	deduped := uint64(0)
	if st.Queries > st.Planned {
		deduped = st.Queries - st.Planned
	}
	return plannerResponse{
		Batches:           st.Batches,
		Queries:           st.Queries,
		Planned:           st.Planned,
		DedupedQueries:    deduped,
		UniqueSubproblems: st.UniqueSubproblems,
		TotalSubproblems:  st.TotalSubproblems,
	}
}

func (s *server) engineResponse() engineStatsResponse {
	st := s.eng.Stats()
	return engineStatsResponse{
		Workers:           st.Workers,
		PoolAssists:       st.Assists,
		InFlight:          st.InFlight,
		QueueDepth:        st.Queued,
		MaxInFlight:       st.MaxInFlight,
		QueueCapacity:     st.QueueCapacity,
		Admitted:          st.Admitted,
		RejectedQueueFull: st.RejectedQueueFull,
		RejectedOverCost:  st.RejectedOverCost,
		RejectedOverQuota: st.RejectedOverQuota,
		RejectedDraining:  st.RejectedDraining,
		CanceledWaiting:   st.CanceledWaiting,
		Repriced:          st.Repriced,
		AdmissionWaits:    st.Waited,
		AdmissionWaitMS:   float64(st.WaitedNanos) / 1e6,
	}
}

// queryContext derives a query's solve context from the request: the
// telemetry trace attached, the tenant tag set to the graph name (what the
// engine's weighted-fair admission and quotas schedule by), and the
// -querytimeout deadline applied when configured. The returned cancel must
// be called when the request finishes.
func (s *server) queryContext(r *http.Request, graph string, tr *telemetry.Trace) (context.Context, context.CancelFunc) {
	ctx := telemetry.NewContext(r.Context(), tr)
	ctx = netrel.WithTenant(ctx, graph)
	if s.def.queryTimeout > 0 {
		return context.WithTimeout(ctx, s.def.queryTimeout)
	}
	return ctx, func() {}
}

// defaultStreamRounds is the sampling-round count of streaming requests
// that leave "rounds" unset: enough round boundaries for a useful bounds
// stream while keeping per-round overhead negligible. Safe to default —
// without a target width the round structure never changes the result.
const defaultStreamRounds = 8

// options builds a request's solve options: its sampling knobs over the
// daemon defaults, held to the per-request cost caps; its anytime knobs on
// the endpoints that take them (at != nil); and its trace flag.
func (s *server) options(smp samplingJSON, at *anytimeJSON) ([]netrel.Option, error) {
	samples, width, workers := smp.Samples, smp.Width, smp.Workers
	if samples <= 0 {
		samples = s.def.samples
	}
	if width <= 0 {
		width = s.def.width
	}
	if workers <= 0 {
		workers = s.def.workers
	}
	// Cost caps: one request must not pin the shared daemon.
	if s.def.maxSamples > 0 && samples > s.def.maxSamples {
		return nil, fmt.Errorf("samples %d exceeds the daemon cap %d", samples, s.def.maxSamples)
	}
	if s.def.maxWidth > 0 && width > s.def.maxWidth {
		return nil, fmt.Errorf("width %d exceeds the daemon cap %d", width, s.def.maxWidth)
	}
	opts := []netrel.Option{
		netrel.WithSamples(samples),
		netrel.WithMaxWidth(width),
		netrel.WithSeed(smp.Seed),
		netrel.WithWorkers(workers),
	}
	switch smp.Estimator {
	case "", "mc":
	case "ht":
		opts = append(opts, netrel.WithEstimator(netrel.EstimatorHorvitzThompson))
	default:
		return nil, fmt.Errorf("unknown estimator %q (want \"mc\" or \"ht\")", smp.Estimator)
	}
	if at != nil {
		rounds := at.Rounds
		if rounds < 0 {
			return nil, fmt.Errorf("rounds must be at least 1, got %d", rounds)
		}
		if at.TargetWidth < 0 || math.IsNaN(at.TargetWidth) {
			return nil, fmt.Errorf("target_width must be non-negative, got %v", at.TargetWidth)
		}
		// A stream needs round boundaries to flush at.
		if at.Stream && rounds == 0 {
			rounds = defaultStreamRounds
		}
		if rounds > 0 {
			opts = append(opts, netrel.WithSampleRounds(rounds))
		}
		if at.TargetWidth > 0 {
			opts = append(opts, netrel.WithTargetWidth(at.TargetWidth))
		}
	}
	if smp.Trace {
		opts = append(opts, netrel.WithTrace())
	}
	return opts, nil
}

// progressJSON is the wire shape of one "progress" SSE event: a query's
// anytime interval at a round boundary. Lower never decreases and Upper
// never increases across a query's events; the last one has "done": true.
type progressJSON struct {
	Query       int     `json:"query"`
	Round       int     `json:"round"`
	Lower       float64 `json:"lower"`
	Upper       float64 `json:"upper"`
	Estimate    float64 `json:"estimate"`
	SamplesUsed int     `json:"samples_used"`
	Done        bool    `json:"done"`
}

func toProgressJSON(p netrel.Progress) progressJSON {
	return progressJSON{
		Query:       p.Query,
		Round:       p.Round,
		Lower:       p.Lower,
		Upper:       p.Upper,
		Estimate:    p.Estimate,
		SamplesUsed: p.SamplesUsed,
		Done:        p.Done,
	}
}

// sseWriter emits Server-Sent Events, flushing after each so round-boundary
// bounds reach the client as they tighten. All writes happen on the handler
// goroutine (WithProgress sinks run on the calling goroutine), so there is
// no locking.
type sseWriter struct {
	w http.ResponseWriter
	f http.Flusher
}

// newSSEWriter switches the response to an event stream. It fails (with a
// normal JSON error, since no event byte has been written yet) when the
// connection cannot stream.
func newSSEWriter(w http.ResponseWriter) (*sseWriter, error) {
	f, ok := w.(http.Flusher)
	if !ok {
		return nil, errors.New("streaming is not supported on this connection")
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no") // tell buffering proxies to pass events through
	w.WriteHeader(http.StatusOK)
	return &sseWriter{w: w, f: f}, nil
}

// event writes one named event with a JSON payload.
func (s *sseWriter) event(name string, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		slog.Warn("encoding SSE event failed", "event", name, "error", err.Error())
		return
	}
	fmt.Fprintf(s.w, "event: %s\ndata: %s\n\n", name, data)
	s.f.Flush()
}

// parseMode maps the wire mode name to a QueryMode. "topk" returns a
// ranking, so the caller is pointed to /v1/topk.
func parseMode(mode string) (netrel.QueryMode, error) {
	switch mode {
	case "", "terminal-set":
		return netrel.ModeTerminalSet, nil
	case "conditional":
		return netrel.ModeConditional, nil
	case "topk":
		return 0, errors.New(`mode "topk" returns a ranking; POST it to /v1/topk`)
	default:
		return 0, fmt.Errorf("unknown mode %q (want \"terminal-set\", \"conditional\" or \"topk\")", mode)
	}
}

// uncheckedEdges tells validateSpec to leave evidence edge indices to the
// library: a what-if's evidence refers to the edge order after its delta.
const uncheckedEdges = -1

// validateSpec checks a query's terminal indices against the graph's n
// vertices and, unless edges is uncheckedEdges, its evidence indices
// against the graph's edge count before the request occupies an admission
// slot, so an out-of-range index fails fast with a message naming the
// offending index and the query's mode (the library would reject it too,
// but later and less specifically).
func validateSpec(n, edges int, mode netrel.QueryMode, terminals []int, evidence []evidenceJSON) error {
	if len(terminals) == 0 {
		return fmt.Errorf("%v query needs at least one terminal", mode)
	}
	for i, t := range terminals {
		if t < 0 || t >= n {
			return fmt.Errorf("%v query: terminals[%d] = %d out of range [0,%d)", mode, i, t, n)
		}
	}
	if len(evidence) > 0 && mode != netrel.ModeConditional && mode != netrel.ModeTopK {
		return fmt.Errorf(`%v query cannot carry evidence (use mode "conditional")`, mode)
	}
	if edges == uncheckedEdges {
		return nil
	}
	for i, ev := range evidence {
		if ev.Edge < 0 || ev.Edge >= edges {
			return fmt.Errorf("%v query: evidence[%d].edge = %d out of range [0,%d)", mode, i, ev.Edge, edges)
		}
	}
	return nil
}

// spec parses and validates a wire query against a graph of n vertices and
// the given edge count (see validateSpec).
func (q specJSON) spec(n, edges int) (netrel.QuerySpec, error) {
	mode, err := parseMode(q.Mode)
	if err != nil {
		return netrel.QuerySpec{}, err
	}
	if err := validateSpec(n, edges, mode, q.Terminals, q.Evidence); err != nil {
		return netrel.QuerySpec{}, err
	}
	return netrel.QuerySpec{Mode: mode, Terminals: q.Terminals, Evidence: toEvidence(q.Evidence)}, nil
}

func toEvidence(evidence []evidenceJSON) []netrel.EdgeObservation {
	if len(evidence) == 0 {
		return nil
	}
	obs := make([]netrel.EdgeObservation, len(evidence))
	for i, ev := range evidence {
		obs[i] = netrel.EdgeObservation{Edge: ev.Edge, Up: ev.Up}
	}
	return obs
}

// handleHealthz reports liveness — and readiness: once the drain has begun
// the probe flips to 503 "draining", so load balancers stop routing new
// requests here while in-flight queries finish.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	graphs := make(map[string]graphStatsResponse)
	var totalQueries, totalBatches, totalBatchQs, totalFailures uint64
	var totalSamples, totalEarlyStops uint64
	var totalModes modesResponse
	for _, info := range s.reg.List() {
		// The handle's session is read without a registry touch, so stats
		// scrapes never perturb last-query recency or trigger pressure
		// eviction.
		h := s.handleFor(info.Name)
		if h == nil {
			continue // evicted between List and the handle fetch
		}
		sess, c := h.sess, h.c
		g := graphStatsResponse{
			Source:           info.Source,
			Vertices:         info.Vertices,
			Edges:            info.Edges,
			Version:          info.Version,
			Mutations:        sess.Mutations(),
			CacheInvalidated: sess.CacheInvalidations(),
			IndexBuilt:       info.IndexBuilt,
			RetainedBytes:    info.RetainedBytes,
			IndexBuilds:      sess.IndexBuilds(),
			Cache:            toCacheResponse(sess.CacheStats()),
			Planner:          toPlannerResponse(sess.PlanStats()),
			PhaseSeconds:     h.gm.phaseSeconds(),
			QoS:              toQoSResponse(s.eng.TenantStats(info.Name)),
			Queries:          c.queries.Load(),
			BatchRequests:    c.batches.Load(),
			BatchedQueries:   c.batchQs.Load(),
			WhatIfQueries:    c.whatifs.Load(),
			Failures:         c.failures.Load(),
			SamplesDrawn:     c.samplesDrawn.Load(),
			EarlyStops:       c.earlyStops.Load(),
			Modes: modesResponse{
				TerminalSet: c.modeTerminalSet.Load(),
				Conditional: c.modeConditional.Load(),
				TopK:        c.modeTopK.Load(),
			},
		}
		totalQueries += g.Queries
		totalBatches += g.BatchRequests
		totalBatchQs += g.BatchedQueries
		totalFailures += g.Failures
		totalSamples += g.SamplesDrawn
		totalEarlyStops += g.EarlyStops
		totalModes.TerminalSet += g.Modes.TerminalSet
		totalModes.Conditional += g.Modes.Conditional
		totalModes.TopK += g.Modes.TopK
		graphs[info.Name] = g
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"uptime_ms": float64(time.Since(s.started)) / float64(time.Millisecond),
		"engine":    s.engineResponse(),
		"memory": map[string]any{
			"retained_bytes": s.reg.RetainedBytes(),
			"max_bytes":      s.def.maxBytes,
			"evictions":      s.reg.MemoryEvictions(),
		},
		"graphs":          graphs,
		"queries":         totalQueries,
		"batch_requests":  totalBatches,
		"batched_queries": totalBatchQs,
		"failures":        totalFailures,
		"samples_drawn":   totalSamples,
		"early_stops":     totalEarlyStops,
		"modes":           totalModes,
	})
}

func (s *server) handleListGraphs(w http.ResponseWriter, r *http.Request) {
	type graphInfo struct {
		Name          string `json:"name"`
		Source        string `json:"source"`
		Vertices      int    `json:"vertices"`
		Edges         int    `json:"edges"`
		Version       uint64 `json:"version"`
		IndexBuilt    bool   `json:"index_built"`
		RetainedBytes int64  `json:"retained_bytes"`
	}
	infos := s.reg.List()
	out := make([]graphInfo, len(infos))
	for i, info := range infos {
		out[i] = graphInfo{
			Name: info.Name, Source: info.Source,
			Vertices: info.Vertices, Edges: info.Edges, Version: info.Version,
			IndexBuilt: info.IndexBuilt, RetainedBytes: info.RetainedBytes,
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"graphs": out})
}

func (s *server) handleRegisterGraph(w http.ResponseWriter, r *http.Request) {
	var req registerRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if req.Name == "" {
		writeError(w, http.StatusBadRequest, errors.New("graph name is required"))
		return
	}
	if req.Weight < 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("weight must be non-negative, got %d", req.Weight))
		return
	}
	if req.QuotaRate < 0 || req.QuotaBurst < 0 ||
		math.IsNaN(req.QuotaRate) || math.IsNaN(req.QuotaBurst) ||
		math.IsInf(req.QuotaRate, 0) || math.IsInf(req.QuotaBurst, 0) {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("quota_rate and quota_burst must be finite and non-negative, got %v and %v", req.QuotaRate, req.QuotaBurst))
		return
	}
	var (
		g      *netrel.Graph
		source string
		err    error
	)
	switch {
	case req.TSV != "" && req.Dataset != "":
		writeError(w, http.StatusBadRequest, errors.New(`give either "tsv" or "dataset", not both`))
		return
	case req.TSV != "":
		g, err = netrel.ReadGraph(strings.NewReader(req.TSV))
		source = "tsv-upload"
	case req.Dataset != "":
		scale := req.Scale
		if scale == "" {
			scale = "small"
		}
		g, source, err = loadGraph("", req.Dataset, scale, req.Seed)
	default:
		writeError(w, http.StatusBadRequest, errors.New(`give "tsv" content or a "dataset" name`))
		return
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := s.register(req.Name, source, g, graphQoS{
		weight:     req.Weight,
		quotaRate:  req.QuotaRate,
		quotaBurst: req.QuotaBurst,
	}); err != nil {
		switch {
		case errors.Is(err, errGraphLimit):
			writeError(w, http.StatusTooManyRequests, err)
		case strings.Contains(err.Error(), "already registered"):
			writeError(w, http.StatusConflict, err)
		default: // invalid name and other client mistakes
			writeError(w, http.StatusBadRequest, err)
		}
		return
	}
	writeJSON(w, http.StatusCreated, map[string]any{
		"name": req.Name, "source": source,
		"vertices": g.N(), "edges": g.M(),
	})
}

func (s *server) handleEvictGraph(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if name == defaultGraphName {
		writeError(w, http.StatusBadRequest, errors.New("the default graph cannot be evicted"))
		return
	}
	if !s.reg.Evict(name) {
		writeError(w, http.StatusNotFound, fmt.Errorf("graph %q not registered", name))
		return
	}
	s.mu.Lock()
	delete(s.graphs, name)
	s.mu.Unlock()
	s.pruneGraphMetrics(name)
	// Forget the tenant's weight, quota, and counters: a re-registered
	// name starts fresh, like its metric series.
	s.eng.RemoveTenant(name)
	writeJSON(w, http.StatusOK, map[string]any{"evicted": name})
}

// queryRun is what serveQuery hands a request's solve closure: the solve
// options (a stream's progress sink appended), the request's trace — batch
// and what-if read their own cache and planner counts from it — and the
// solve's start time, from which batch and mutate report their duration.
type queryRun struct {
	opts  []netrel.Option
	tr    *telemetry.Trace
	start time.Time
}

// serveQuery runs one query request against its graph handle, the steps
// every query endpoint shares. A streaming request commits to SSE before
// solving: every round boundary emits a "progress" event, and the terminal
// "result" (or "error") event carries what the JSON response would have
// been; the progress sink runs on this goroutine, so the writes never race.
// Every request carries a telemetry trace — it feeds the per-graph phase and
// latency metrics and the slow-query and timeout logs, all under label
// (the mode name, or "batch", "topk", "whatif", "mutate"); "trace": true
// additionally echoes the breakdown on the result. Observation-only:
// results are bit-identical either way. solve runs the request and, on
// success, bumps the graph's counters for it and returns the response body.
func (s *server) serveQuery(w http.ResponseWriter, r *http.Request, h *graphHandle, label string,
	opts []netrel.Option, stream bool, solve func(context.Context, *queryRun) (any, error)) {
	var sse *sseWriter
	if stream {
		var err error
		if sse, err = newSSEWriter(w); err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		opts = append(opts, netrel.WithProgress(func(p netrel.Progress) {
			sse.event("progress", toProgressJSON(p))
		}))
	}
	q := &queryRun{opts: opts, tr: telemetry.New()}
	ctx, cancel := s.queryContext(r, h.name, q.tr)
	defer cancel()
	q.start = time.Now()
	body, err := solve(ctx, q)
	elapsed := time.Since(q.start)
	if err != nil {
		h.c.failures.Add(1)
		s.logTimeout(ctx, h.name, label, q.tr, elapsed, err)
		if sse != nil {
			// The 200 and the event stream are already on the wire; the error
			// becomes the stream's terminal event instead of a status.
			sse.event("error", map[string]string{"error": err.Error()})
			return
		}
		writeError(w, statusFor(err), err)
		return
	}
	s.recordQuery(h, label, q.tr, elapsed)
	s.logSlow(ctx, h.name, label, q.tr, elapsed)
	if sse != nil {
		sse.event("result", body)
		return
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *server) handleReliability(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	h := s.graph(w, req.Graph)
	if h == nil {
		return
	}
	g := h.sess.Graph()
	spec, err := req.spec(g.N(), g.M())
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Exact queries do not sample, so any anytime knob conflicts; the
	// conflict is reported after the sampling knobs' own errors.
	at := &req.anytimeJSON
	if req.Exact {
		at = nil
	}
	opts, err := s.options(req.samplingJSON, at)
	if err == nil && req.Exact && req.anytimeJSON != (anytimeJSON{}) {
		err = errors.New(`exact queries do not sample: "stream", "rounds" and "target_width" need a sampling query`)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	solve := h.sess.SolveContext
	if req.Exact {
		solve = h.sess.SolveExactContext
	}
	s.serveQuery(w, r, h, spec.Mode.String(), opts, req.Stream, func(ctx context.Context, q *queryRun) (any, error) {
		res, err := solve(ctx, spec, q.opts...)
		if err != nil {
			return nil, err
		}
		h.c.queries.Add(1)
		h.c.countMode(spec.Mode, 1)
		annots := q.tr.Snapshot().Annots
		return map[string]any{
			"graph":        h.name,
			"mode":         spec.Mode.String(),
			"result":       toResponse(res),
			"cache_hits":   annots[telemetry.AnnotCacheHits],
			"cache_misses": annots[telemetry.AnnotCacheMisses],
		}, nil
	})
}

// handleBatch serves a batch of terminal-set and conditional queries. A
// streaming batch emits one "progress" event per query per round boundary
// (fan-in-shared subproblems tighten several queries at once).
func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if len(req.Queries) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("batch needs at least one query"))
		return
	}
	if s.def.maxQueries > 0 && len(req.Queries) > s.def.maxQueries {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("batch of %d queries exceeds the daemon cap %d", len(req.Queries), s.def.maxQueries))
		return
	}
	h := s.graph(w, req.Graph)
	if h == nil {
		return
	}
	opts, err := s.options(req.samplingJSON, &req.anytimeJSON)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	g := h.sess.Graph()
	queries := make([]netrel.Query, len(req.Queries))
	for i, q := range req.Queries {
		if queries[i], err = q.spec(g.N(), g.M()); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("query %d: %w", i, err))
			return
		}
	}
	s.serveQuery(w, r, h, "batch", opts, req.Stream, func(ctx context.Context, q *queryRun) (any, error) {
		// Admission happens inside BatchReliabilityContext in two phases: the
		// batch's planning cost (one unit per distinct terminal set) is
		// checked against -maxcost before any planning, and the post-dedup
		// solve cost — unique subproblems, never more than distinct terminal
		// sets × (samples + construction budget) — directly after it. Either
		// phase over the cap rejects the batch with an error naming the limit
		// before any solving.
		results, err := h.sess.BatchReliabilityContext(ctx, queries, q.opts...)
		if err != nil {
			return nil, err
		}
		elapsed := time.Since(q.start)
		h.c.batches.Add(1)
		h.c.batchQs.Add(uint64(len(results)))
		for _, query := range queries {
			h.c.countMode(query.Mode, 1)
		}
		out := make([]queryResponse, len(results))
		for i, r := range results {
			out[i] = toResponse(r)
		}
		// The counts come from the request's own trace, so concurrent
		// requests never leak into each other's numbers.
		annots := q.tr.Snapshot().Annots
		return map[string]any{
			"graph":           h.name,
			"results":         out,
			"duration_ms":     float64(elapsed) / float64(time.Millisecond),
			"cache_hits":      annots[telemetry.AnnotCacheHits],
			"cache_misses":    annots[telemetry.AnnotCacheMisses],
			"queries_planned": annots[telemetry.AnnotQueriesPlanned],
			"queries_deduped": annots[telemetry.AnnotQueriesDeduped],
		}, nil
	})
}

// handleTopK serves top-k reliable search: rank every vertex outside the
// base terminal set by the reliability of terminals ∪ {v} — conditioned on
// the request's evidence when present — and return the k best. The scan is
// one deduplicated candidate batch, so the -maxqueries batch cap bounds it.
func (s *server) handleTopK(w http.ResponseWriter, r *http.Request) {
	var req topkRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	h := s.graph(w, req.Graph)
	if h == nil {
		return
	}
	g := h.sess.Graph()
	if err := validateSpec(g.N(), g.M(), netrel.ModeTopK, req.Terminals, req.Evidence); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.K <= 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("topk query needs k > 0, got %d", req.K))
		return
	}
	// The scan skips every base terminal once, however often it is listed.
	distinct := make(map[int]bool, len(req.Terminals))
	for _, t := range req.Terminals {
		distinct[t] = true
	}
	if candidates := g.N() - len(distinct); s.def.maxQueries > 0 && candidates > s.def.maxQueries {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("topk scan of %d candidate vertices exceeds the daemon batch cap %d", candidates, s.def.maxQueries))
		return
	}
	opts, err := s.options(req.samplingJSON, nil)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	spec := netrel.QuerySpec{
		Mode:      netrel.ModeTopK,
		Terminals: req.Terminals,
		Evidence:  toEvidence(req.Evidence),
		K:         req.K,
	}
	s.serveQuery(w, r, h, "topk", opts, false, func(ctx context.Context, q *queryRun) (any, error) {
		entries, err := h.sess.TopKReliableContext(ctx, spec, q.opts...)
		if err != nil {
			return nil, err
		}
		elapsed := time.Since(q.start)
		h.c.queries.Add(1)
		h.c.countMode(netrel.ModeTopK, 1)
		type topkEntry struct {
			Vertex int           `json:"vertex"`
			Result queryResponse `json:"result"`
		}
		out := make([]topkEntry, len(entries))
		for i, e := range entries {
			out[i] = topkEntry{Vertex: e.Vertex, Result: toResponse(e.Result)}
		}
		return map[string]any{
			"graph":       h.name,
			"mode":        netrel.ModeTopK.String(),
			"k":           req.K,
			"results":     out,
			"duration_ms": float64(elapsed) / float64(time.Millisecond),
		}, nil
	})
}

// decodeBody decodes a request body — exactly one JSON object, capped at
// -maxbody bytes — into dst; once shutdown has begun it 503s instead. On
// failure it answers the request itself and returns false.
func (s *server) decodeBody(w http.ResponseWriter, r *http.Request, dst any) bool {
	if s.draining.Load() {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, errors.New("server is draining"))
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.def.maxBody))
	dec.DisallowUnknownFields()
	var tooLarge *http.MaxBytesError
	err := dec.Decode(dst)
	if err == nil {
		if _, err = dec.Token(); err == io.EOF {
			return true
		}
		if !errors.As(err, &tooLarge) {
			err = errors.New("trailing data after the JSON object")
		}
	}
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("request body exceeds the %d-byte limit", tooLarge.Limit))
		return false
	}
	writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
	return false
}

// statusFor maps computation errors to HTTP statuses: anything the caller
// can fix (bad terminals, bad options, an over-cost request, an exact
// request over too small a width) is a 400; a tenant over its cost quota
// is a 429 (retry after the bucket refills); saturation and shutdown are
// 503s (retryable); a -querytimeout deadline is a 504; client disconnects
// surface as 499-style 503s; genuine solver failures are 500s.
func statusFor(err error) int {
	switch {
	case errors.Is(err, netrel.ErrTerminalsRequired), errors.Is(err, netrel.ErrNotExact):
		return http.StatusBadRequest
	case errors.Is(err, netrel.ErrOverCost):
		return http.StatusBadRequest
	case errors.Is(err, netrel.ErrOverQuota):
		return http.StatusTooManyRequests
	case errors.Is(err, netrel.ErrQueueFull), errors.Is(err, netrel.ErrEngineDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	}
	msg := err.Error()
	for _, needle := range []string{"terminal", "netrel:", "ugraph:"} {
		if strings.Contains(msg, needle) {
			return http.StatusBadRequest
		}
	}
	return http.StatusInternalServerError
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		slog.Warn("encoding response failed", "error", err.Error())
	}
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
