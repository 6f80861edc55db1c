package netrel

import (
	"context"
	"math"
	"runtime"
	"sync"

	"netrel/internal/core"
	"netrel/internal/engine"
	"netrel/internal/exact"
	"netrel/internal/sampling"
)

// Engine is the process-wide execution engine: one shared worker pool that
// runs every chunked parallel phase (pipeline jobs, S2BDD strata, BDD
// layers, MC/HT worlds) plus an admission controller that bounds how many
// requests solve — or wait to solve — at once.
//
// Without an engine, each call spawns its own WithWorkers goroutines, so N
// concurrent callers oversubscribe the machine N×. With one, a call runs
// on its own goroutine and idle pool workers assist it; total goroutines
// stay bounded by pool size + one per in-flight request. The chunk
// schedule — boundaries, RNG streams, fold order — is workload-derived and
// untouched, so results remain bit-identical for any pool size, any
// admission limits, and any mixture of callers (see WithWorkers).
//
// Sessions use DefaultEngine unless SetEngine chooses another (or nil for
// the standalone spawn-per-call mode). A Registry shares one engine across
// all of its graphs.
type Engine struct {
	e *engine.Engine
}

// EngineConfig parameterizes NewEngine. The zero value matches
// DefaultEngine: a GOMAXPROCS pool, unlimited admission, no cost cap.
type EngineConfig struct {
	// Workers is the pool size; ≤0 selects GOMAXPROCS.
	Workers int
	// MaxInFlight bounds concurrently admitted requests; ≤0 means
	// unlimited (no queueing, every request admitted immediately).
	MaxInFlight int
	// QueueDepth bounds requests waiting for admission once MaxInFlight
	// are solving; beyond it requests fail with ErrQueueFull. Ignored when
	// MaxInFlight ≤ 0.
	QueueDepth int
	// MaxCost caps a single request's cost, measured in
	// sample-draw-equivalent units. Every S2BDD request — a single query
	// or a batch — admits in two phases: a small planning cost (one unit
	// per distinct terminal set) checked before any planning, then the
	// post-dedup solve cost re-checked after planning. The solve cost bills
	// each unique subproblem samples + its construction budget
	// (⌈DefaultWorkFactor·samples⌉ — construction effort is bounded by that
	// multiple of the sampling cost, so it is billed like the extra draws
	// it replaces), capped at the distinct-terminal-set count so no request
	// is billed more than its queries issued one at a time: heavily-shared
	// batches are billed for the work they actually cause. Over-cost
	// requests fail with ErrOverCost. The MonteCarlo, BDDExact and
	// Factoring baselines have no planning phase and admit once at their
	// full cost. ≤0 disables the cap.
	MaxCost int64
}

// EngineStats snapshots an engine's gauges and counters.
type EngineStats struct {
	// Workers is the pool size; Assists counts worker slots the pool
	// executed on behalf of chunked phases.
	Workers int
	Assists uint64
	// InFlight is the number of admitted, unfinished requests; Queued the
	// number currently waiting for admission.
	InFlight, Queued int
	// MaxInFlight (0 = unlimited) and QueueCapacity echo the configuration.
	MaxInFlight, QueueCapacity int
	// Admitted, RejectedQueueFull, RejectedOverCost, RejectedOverQuota,
	// RejectedDraining and CanceledWaiting count admission outcomes since
	// the engine was created. RejectedOverCost and RejectedOverQuota
	// include both admission phases: requests over the cap (or quota) at
	// their planning cost and S2BDD requests repriced over it after
	// planning.
	Admitted          uint64
	RejectedQueueFull uint64
	RejectedOverCost  uint64
	RejectedOverQuota uint64
	RejectedDraining  uint64
	CanceledWaiting   uint64
	// Repriced counts second-phase admission checks that passed: S2BDD
	// requests, single or batch, whose post-dedup solve cost was accepted
	// after planning.
	Repriced uint64
	// Waited counts admissions that queued for a token; WaitedNanos is
	// their summed queue wait. Together they give mean admission latency
	// under saturation — the signal per-tenant QoS and autoscaling watch.
	Waited      uint64
	WaitedNanos uint64
}

// Admission errors surfaced to servers: ErrQueueFull and ErrEngineDraining
// are retryable (503), ErrOverQuota is per-tenant pacing (429), ErrOverCost
// is a client error. Errors returned by queries wrap these; test with
// errors.Is.
var (
	ErrQueueFull      = engine.ErrQueueFull
	ErrOverCost       = engine.ErrOverCost
	ErrOverQuota      = engine.ErrOverQuota
	ErrEngineDraining = engine.ErrDraining
)

// WithTenant tags ctx with the tenant key the engine's weighted-fair
// admission schedules by — netreld uses the graph name. Untagged requests
// share a single default tenant.
func WithTenant(ctx context.Context, tenant string) context.Context {
	return engine.WithTenant(ctx, tenant)
}

// TenantFromContext returns ctx's tenant tag ("" when untagged).
func TenantFromContext(ctx context.Context) string {
	return engine.TenantFromContext(ctx)
}

// TenantStats snapshots one tenant's scheduling weight, cost quota, and
// admission counters.
type TenantStats struct {
	// Tenant is the tenant key; Weight its share of the token-grant stream
	// relative to other tenants with queued requests.
	Tenant string
	Weight int
	// Queued is the tenant's requests waiting for admission right now.
	Queued int
	// Admitted, Waited, WaitedNanos and RejectedOverQuota count this
	// tenant's admission outcomes.
	Admitted          uint64
	Waited            uint64
	WaitedNanos       uint64
	RejectedOverQuota uint64
	// QuotaRate and QuotaBurst echo the quota configuration (0 = no
	// quota); QuotaTokens is the bucket's current level.
	QuotaRate, QuotaBurst, QuotaTokens float64
}

// NewEngine starts an engine with its own worker pool. Callers that create
// one should Close it when done; the pool goroutines run until then.
func NewEngine(cfg EngineConfig) *Engine {
	return &Engine{e: engine.New(engine.Config{
		Workers:     cfg.Workers,
		MaxInFlight: cfg.MaxInFlight,
		QueueDepth:  cfg.QueueDepth,
		MaxCost:     cfg.MaxCost,
	})}
}

var (
	defaultEngineOnce sync.Once
	defaultEngine     *Engine
)

// DefaultEngine returns the lazily created process-wide engine backing all
// sessions and package-level calls that did not choose their own: a
// GOMAXPROCS-sized pool with unlimited admission and no cost cap, so
// library callers see pooled execution without admission surprises.
// Serving layers should run a NewEngine with explicit limits instead.
func DefaultEngine() *Engine {
	defaultEngineOnce.Do(func() {
		defaultEngine = NewEngine(EngineConfig{Workers: runtime.GOMAXPROCS(0)})
	})
	return defaultEngine
}

// Stats snapshots the engine.
func (e *Engine) Stats() EngineStats {
	s := e.e.Stats()
	return EngineStats{
		Workers:           s.Workers,
		Assists:           s.Assists,
		InFlight:          s.InFlight,
		Queued:            s.Queued,
		MaxInFlight:       s.MaxInFlight,
		QueueCapacity:     s.QueueCapacity,
		Admitted:          s.Admitted,
		RejectedQueueFull: s.RejectedQueueFull,
		RejectedOverCost:  s.RejectedOverCost,
		RejectedOverQuota: s.RejectedOverQuota,
		RejectedDraining:  s.RejectedDraining,
		CanceledWaiting:   s.CanceledWaiting,
		Repriced:          s.Repriced,
		Waited:            s.Waited,
		WaitedNanos:       s.WaitedNanos,
	}
}

// SetTenantWeight sets a tenant's share of the token-grant stream under
// contention relative to other tenants with queued requests (minimum 1,
// the default). Safe to call at any time; the next grant uses it.
func (e *Engine) SetTenantWeight(tenant string, weight int) {
	e.e.SetTenantWeight(tenant, weight)
}

// SetTenantQuota configures a tenant's cost quota: a token bucket of up to
// burst sample-draw-equivalent units, refilled at rate units per second,
// starting full. Admission debits each request's declared cost (and
// Reprice the post-planning increase); a request the bucket cannot cover
// is rejected immediately with ErrOverQuota, never queued. rate ≤ 0
// removes the quota; burst ≤ 0 selects rate.
func (e *Engine) SetTenantQuota(tenant string, rate, burst float64) {
	e.e.SetTenantQuota(tenant, rate, burst)
}

// RemoveTenant forgets a tenant's weight, quota, and counters, so a later
// re-registration of the same key starts fresh. Serving layers call it
// when the tenant (graph) is evicted.
func (e *Engine) RemoveTenant(tenant string) { e.e.RemoveTenant(tenant) }

// TenantStats snapshots one tenant (zero values for unknown tenants).
func (e *Engine) TenantStats(tenant string) TenantStats {
	ts := e.e.TenantStats(tenant)
	return TenantStats{
		Tenant:            ts.Tenant,
		Weight:            ts.Weight,
		Queued:            ts.Queued,
		Admitted:          ts.Admitted,
		Waited:            ts.Waited,
		WaitedNanos:       ts.WaitedNanos,
		RejectedOverQuota: ts.RejectedOverQuota,
		QuotaRate:         ts.QuotaRate,
		QuotaBurst:        ts.QuotaBurst,
		QuotaTokens:       ts.QuotaTokens,
	}
}

// Drain stops admitting new requests (current and future waiters fail with
// ErrEngineDraining) while admitted requests finish with pool assistance.
// Serving layers call it on shutdown before draining HTTP connections.
func (e *Engine) Drain() { e.e.Drain() }

// Close drains the engine and stops its pool goroutines; in-flight chunked
// work completes on the callers' own goroutines. Closing DefaultEngine is
// not supported.
func (e *Engine) Close() { e.e.Close() }

// exec returns the sampling.Executor view of an engine; nil receiver (the
// standalone mode) yields a nil executor, i.e. spawn-per-call.
func (e *Engine) exec() sampling.Executor {
	if e == nil {
		return nil
	}
	return e.e
}

// admit routes a request of the given cost through admission; the nil
// (standalone) engine admits everything. release is never nil.
func (e *Engine) admit(ctx context.Context, cost int64) (release func(), err error) {
	if e == nil {
		return func() {}, nil
	}
	return e.e.Admit(ctx, cost)
}

// reprice is the second phase of S2BDD admission: re-check an admitted
// request against the cost cap and its tenant's quota with its
// post-planning cost. admittedCost is what Admit already billed; only the
// increase is debited from the quota. The nil (standalone) engine accepts
// everything.
func (e *Engine) reprice(ctx context.Context, admittedCost, cost int64) error {
	if e == nil {
		return nil
	}
	return e.e.Reprice(ctx, admittedCost, cost)
}

// planCost is the first-phase admission cost of an S2BDD call: one unit
// per distinct spec. Planning a spec is one preprocess pass over the shared
// index — O(|E|) work, about what one completion draw costs — so the
// planning phase is billed like the handful of draws it resembles, and
// only the second phase (see solveCost) carries the real weight.
func planCost(distinct int) int64 {
	return int64(max(distinct, 1))
}

// solveCost is the second-phase admission cost of a planned S2BDD call in
// sample-draw-equivalent units (one unit ≈ one completion draw ≈ |E|
// node-slot operations). Every unique post-dedup subproblem is billed one
// query's solve budget — its samples plus its construction budget:
//
//   - when the construction work budget is active (sampling run with the
//     stall rule on), construction is capped at DefaultWorkFactor·s·|E|
//     node-slot operations — the cost of about DefaultWorkFactor·s draws —
//     so a subproblem costs ⌈(1+DefaultWorkFactor)·s⌉ units;
//   - otherwise (exactOnly, bounds-only s=0, or the stall rule disabled)
//     construction sweeps every layer unbudgeted, bounded only by
//     2·MaxWidth·|E| slot operations ≈ 2·MaxWidth draw-equivalents, and is
//     billed that upper bound — so construction-heaviest requests cannot
//     slip under a cost cap as one or two units.
//
// The count is capped at the distinct-spec count, so decomposition never
// makes a call dearer than its distinct queries issued one at a time (one
// query can decompose into many small subproblems, each far cheaper than
// the per-query bound): N duplicates of one decomposing query cost exactly
// what that query costs alone.
func solveCost(o options, unique, distinct int, exactOnly bool) int64 {
	n := min(unique, distinct)
	if n < 1 {
		return 0 // every query answered by preprocessing alone
	}
	s := max(o.samples, 1)
	construction := int64(math.Ceil(core.DefaultWorkFactor * float64(s)))
	if exactOnly || o.samples == 0 || o.noStall {
		construction = 2 * int64(o.maxWidth)
	}
	return (int64(s) + construction) * int64(n)
}

// factoringCost is the admission cost of the Factoring exact solver, whose
// work is governed by its recursion budget (one recursive call does O(|E|)
// reduction work ≈ one draw-equivalent), not by samples or the S2BDD width.
func factoringCost(options) int64 {
	return exact.DefaultFactoringBudget
}

// samplingCost is the admission cost of the MC/HT possible-world baseline,
// which has no construction phase: its work is exactly its draws.
func samplingCost(o options) int64 {
	s := o.samples
	if s < 1 {
		s = 1
	}
	return int64(s)
}

// bddCost is the admission cost of the exact full-BDD baseline, whose work
// is governed by its node budget (one node expansion ≈ one draw-equivalent
// of frontier operations), not by samples or the S2BDD width.
func bddCost(o options) int64 {
	return int64(o.bddBudget)
}
