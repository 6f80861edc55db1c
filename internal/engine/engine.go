// Package engine owns the process-wide execution resources of the module:
// a fixed pool of worker goroutines that assists every chunked parallel
// phase, and an admission controller that bounds how many requests may
// solve (or wait to solve) concurrently.
//
// Before the engine existed, every Reliability/BatchReliability call
// spawned its own WithWorkers goroutines, so N concurrent daemon requests
// oversubscribed the machine N-fold and nothing could be cancelled. The
// engine inverts that: work still arrives as the same deterministic chunk
// schedule (chunk boundaries and RNG streams are workload-derived, so
// results are bit-identical for any pool size — see internal/sampling),
// but the goroutines executing chunks come from one shared pool.
//
// # Execution model
//
// The pool never queues work. A chunked phase always runs on its calling
// goroutine, and offers its remaining worker slots to the pool via TryGo;
// an offer succeeds only if a pool worker is idle at that instant
// (hand-off over an unbuffered channel). A saturated pool therefore
// degrades a request to sequential execution on its own goroutine instead
// of deadlocking or spawning — which is also what makes nested fork-join
// (pipeline jobs that internally fan out strata) safe: a worker executing
// an outer slot that finds no idle workers for its inner slots simply
// runs the inner chunks itself. Total goroutines are bounded by
// pool size + one per in-flight request, never requests × workers.
//
// # Admission model
//
// Admit bounds concurrency at request granularity: MaxInFlight requests
// may hold admission tokens, QueueDepth more may wait for one, and the
// rest are rejected immediately with ErrQueueFull. A per-request cost cap
// (MaxCost, in caller-priced sample-draw-equivalent units) rejects
// oversized requests at Admit, or at Reprice for two-phase requests.
// Waiting is context-aware: a cancelled request leaves the queue promptly,
// and Drain fails all current and future waiters so a shutting-down server
// can 503 its queue while admitted work finishes.
//
// # Fair-share scheduling and tenant quotas
//
// Waiting requests are keyed by tenant — a serving layer tags each request
// context with WithTenant (netreld uses the graph name); untagged requests
// share the "" tenant. Each tenant has its own FIFO waiting queue, and
// freed tokens are granted by weighted round robin across the tenants that
// have waiters (stride scheduling: the tenant whose granted/weight ratio
// is furthest behind goes next, ties broken by oldest waiter). Within a
// tenant, grants are strictly oldest-first. A new arrival never takes a
// token while any request is queued — it joins its tenant's queue — so a
// flood of fresh requests cannot barge past waiters and starve them, and
// one tenant's flood delays another tenant's trickle by at most its
// weighted share of the token stream.
//
// Tenants may also carry a cost quota: a token bucket in the same
// sample-draw-equivalent units as MaxCost, refilled at a configured rate
// up to a burst. Admission debits the declared cost; a request that
// exceeds the bucket is rejected immediately with ErrOverQuota (never
// queued — quota rejections are the client's pacing problem, not a
// capacity signal). Quotas apply in the unlimited-admission mode too.
//
// Requests whose true cost is only known after some cheap preparatory work
// (S2BDD planning: the post-dedup solve cost is a planning output) use
// two-phase admission: Admit with the small preparatory cost first, then
// Reprice with the real cost once it is known. Reprice re-checks the cost
// cap and debits the tenant's quota for the cost increase — the request
// keeps the admission token it already holds, so the second phase can
// neither queue nor deadlock.
package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"netrel/internal/telemetry"
)

// Rejection and lifecycle errors. Servers map ErrQueueFull and ErrDraining
// to 503 (retryable), ErrOverQuota to 429 (per-tenant pacing), and
// ErrOverCost to a client error.
var (
	// ErrQueueFull reports that MaxInFlight requests are solving and
	// QueueDepth more are already waiting.
	ErrQueueFull = errors.New("engine: admission queue full")
	// ErrOverCost reports a request whose declared cost exceeds MaxCost.
	ErrOverCost = errors.New("engine: request cost exceeds the per-request cap")
	// ErrOverQuota reports a request whose cost exceeds its tenant's
	// token-bucket budget right now; retrying after the bucket refills can
	// succeed.
	ErrOverQuota = errors.New("engine: tenant cost quota exhausted")
	// ErrDraining reports an admission attempt on a draining engine.
	ErrDraining = errors.New("engine: draining, not admitting new requests")
	// ErrClosed reports an admission attempt on a closed engine.
	ErrClosed = errors.New("engine: closed")
)

// tenantCtxKey carries the tenant tag on request contexts.
type tenantCtxKey struct{}

// WithTenant tags ctx with the tenant key fair-share admission schedules
// by (a graph name or API key). Untagged contexts share the "" tenant.
func WithTenant(ctx context.Context, tenant string) context.Context {
	return context.WithValue(ctx, tenantCtxKey{}, tenant)
}

// TenantFromContext returns ctx's tenant tag ("" when untagged).
func TenantFromContext(ctx context.Context) string {
	t, _ := ctx.Value(tenantCtxKey{}).(string)
	return t
}

// Config parameterizes an Engine. The zero value is a permissive default:
// a GOMAXPROCS-sized pool, unlimited admission, no cost cap, no quotas.
type Config struct {
	// Workers is the pool size; ≤0 selects GOMAXPROCS.
	Workers int
	// MaxInFlight bounds concurrently admitted requests; ≤0 means
	// unlimited (no queue, every request is admitted immediately).
	MaxInFlight int
	// QueueDepth bounds requests waiting for admission once MaxInFlight
	// are in flight, summed across all tenants; beyond it Admit fails with
	// ErrQueueFull. Ignored when MaxInFlight ≤ 0; 0 rejects as soon as
	// MaxInFlight is reached.
	QueueDepth int
	// MaxCost is the per-request cost cap in sample-draw-equivalent
	// units; callers price each request with their own cost model (the
	// netrel layer bills an S2BDD request its planning cost at Admit and
	// its post-dedup solve cost at Reprice, and the baselines their draw or
	// node budgets at Admit). ≤0 disables the cap.
	MaxCost int64
}

// Stats is a point-in-time snapshot of the engine.
type Stats struct {
	// Workers is the pool size; Assists counts chunk-phase worker slots
	// the pool has executed (as opposed to slots run inline by callers).
	Workers int
	Assists uint64
	// InFlight is the number of admitted, unreleased requests; Queued the
	// number waiting for admission right now, across all tenants.
	InFlight, Queued int
	// MaxInFlight and QueueCapacity echo the configuration (0 = unlimited
	// in-flight).
	MaxInFlight, QueueCapacity int
	// Admitted, RejectedQueueFull, RejectedOverCost, RejectedOverQuota,
	// RejectedDraining and CanceledWaiting count Admit outcomes since the
	// engine was created. RejectedOverCost and RejectedOverQuota count
	// both phases of two-phase admission.
	Admitted          uint64
	RejectedQueueFull uint64
	RejectedOverCost  uint64
	RejectedOverQuota uint64
	RejectedDraining  uint64
	CanceledWaiting   uint64
	// Repriced counts successful second-phase cost checks (Reprice calls
	// that passed the cap and quota — in the netrel layer, every S2BDD
	// request that reached its solve).
	Repriced uint64
	// Waited counts admissions that had to queue for a token, and
	// WaitedNanos their summed queue wait — the saturation signal a load
	// balancer or autoscaler watches (fast-path admissions contribute to
	// neither).
	Waited      uint64
	WaitedNanos uint64
}

// TenantStats snapshots one tenant's scheduling weight, quota, and
// admission counters.
type TenantStats struct {
	// Tenant is the tenant key; Weight its share of the grant stream
	// relative to other tenants with waiters.
	Tenant string
	Weight int
	// Queued is the tenant's waiters right now.
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

// quotaBucket is a token bucket in sample-draw-equivalent units: capacity
// burst, refilled at rate units per second. The zero value means "no
// quota" (debit always succeeds).
type quotaBucket struct {
	rate, burst float64
	tokens      float64
	last        time.Time
}

// active reports whether a quota is configured.
func (q *quotaBucket) active() bool { return q.rate > 0 }

// refill advances the bucket to now.
func (q *quotaBucket) refill(now time.Time) {
	if !q.active() {
		return
	}
	if dt := now.Sub(q.last).Seconds(); dt > 0 {
		q.tokens = math.Min(q.burst, q.tokens+q.rate*dt)
	}
	q.last = now
}

// debit withdraws cost units, reporting false (and withdrawing nothing)
// when the bucket holds too few. A tiny epsilon absorbs float refill
// round-off so a bucket refilled to exactly cost is spendable.
func (q *quotaBucket) debit(cost int64, now time.Time) bool {
	if !q.active() || cost <= 0 {
		return true
	}
	q.refill(now)
	if q.tokens+1e-9 < float64(cost) {
		return false
	}
	q.tokens -= float64(cost)
	return true
}

// credit returns cost units (a downward reprice), capped at the burst.
func (q *quotaBucket) credit(cost int64, now time.Time) {
	if !q.active() || cost <= 0 {
		return
	}
	q.refill(now)
	q.tokens = math.Min(q.burst, q.tokens+float64(cost))
}

// waiter is one queued admission request.
type waiter struct {
	ts      *tenantState
	seq     uint64        // global arrival order; within a tenant, FIFO
	ready   chan struct{} // buffered(1): receives the granted token
	granted bool          // set under Engine.mu when a token is handed over
}

// tenantState is one tenant's queue, scheduling position, quota, and
// counters. All fields are guarded by Engine.mu.
type tenantState struct {
	name   string
	weight int
	// pass is the tenant's stride-scheduling virtual time: each grant
	// advances it by 1/weight, and the tenant with the smallest pass among
	// those with waiters is granted next, so over any contention window
	// tenants receive tokens proportionally to their weights.
	pass    float64
	waiters []*waiter

	quota quotaBucket

	admitted  uint64
	waited    uint64
	waitNanos uint64
	rejQuota  uint64
}

// Engine is a shared worker pool plus admission controller. It is safe for
// concurrent use; the zero value is not usable — construct with New.
type Engine struct {
	workers int
	maxCost int64

	tasks chan func()   // unbuffered: sends succeed only into an idle worker
	done  chan struct{} // closed by Close; stops pool workers

	// Admission state. maxInFlight ≤ 0 means unlimited (no tokens, no
	// queues — but tenant quotas still apply).
	mu          sync.Mutex
	tenants     map[string]*tenantState
	maxInFlight int
	queueCap    int
	held        int     // admission tokens currently held
	waiting     int     // queued waiters across all tenants
	arrival     uint64  // waiter sequence numbers
	vclock      float64 // stride virtual clock: pass of the last grant

	// quotas counts the tenants with an active quota; it changes only
	// under mu, and while it is zero Reprice has no bucket to debit and
	// skips mu.
	quotas atomic.Int64

	draining  atomic.Bool
	drainCh   chan struct{} // closed by Drain; fails waiting admissions
	drainOnce sync.Once
	closeOnce sync.Once

	inFlight  atomic.Int64 // gauge (covers the unlimited mode too)
	assists   atomic.Uint64
	admitted  atomic.Uint64
	rejQueue  atomic.Uint64
	rejCost   atomic.Uint64
	rejQuota  atomic.Uint64
	rejDrain  atomic.Uint64
	canceled  atomic.Uint64
	repriced  atomic.Uint64
	waited    atomic.Uint64
	waitNanos atomic.Uint64
}

// New starts an engine with cfg's pool and admission limits. The pool
// goroutines run until Close.
func New(cfg Config) *Engine {
	w := cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	e := &Engine{
		workers: w,
		maxCost: cfg.MaxCost,
		tasks:   make(chan func()),
		done:    make(chan struct{}),
		drainCh: make(chan struct{}),
		tenants: make(map[string]*tenantState),
	}
	if cfg.MaxInFlight > 0 {
		e.maxInFlight = cfg.MaxInFlight
		if cfg.QueueDepth > 0 {
			e.queueCap = cfg.QueueDepth
		}
	}
	for i := 0; i < w; i++ {
		go func() {
			for {
				select {
				case <-e.done:
					return
				case fn := <-e.tasks:
					fn()
				}
			}
		}()
	}
	return e
}

// TryGo offers fn to the pool. It returns true only if an idle worker
// accepted it at this instant — fn then runs asynchronously and must
// signal its own completion (callers use a WaitGroup). It returns false,
// without running fn, when every worker is busy or the engine is closed;
// the caller keeps the work. This no-queue hand-off is what makes nested
// fork-join on one bounded pool deadlock-free.
//
// TryGo implements sampling.Executor.
func (e *Engine) TryGo(fn func()) bool {
	select {
	case <-e.done:
		return false
	default:
	}
	select {
	case e.tasks <- fn:
		e.assists.Add(1)
		return true
	default:
		return false
	}
}

// tenantLocked finds or creates a tenant's state. Callers hold e.mu.
// Tenants start at weight 1 with no quota, and persist until RemoveTenant
// so their counters and bucket survive idle periods.
func (e *Engine) tenantLocked(name string) *tenantState {
	ts, ok := e.tenants[name]
	if !ok {
		ts = &tenantState{name: name, weight: 1, pass: e.vclock}
		e.tenants[name] = ts
	}
	return ts
}

// SetTenantWeight sets a tenant's share of the grant stream relative to
// other tenants with waiters (minimum 1, the default). Safe at any time;
// the next grant uses the new weight.
func (e *Engine) SetTenantWeight(tenant string, weight int) {
	if weight < 1 {
		weight = 1
	}
	e.mu.Lock()
	e.tenantLocked(tenant).weight = weight
	e.mu.Unlock()
}

// SetTenantQuota configures a tenant's cost quota: a token bucket holding
// up to burst sample-draw-equivalent units, refilled at rate units per
// second, starting full. rate ≤ 0 removes the quota; burst ≤ 0 selects
// rate (a bucket that holds one second of refill).
func (e *Engine) SetTenantQuota(tenant string, rate, burst float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	ts := e.tenantLocked(tenant)
	if rate <= 0 {
		e.setQuotaLocked(ts, quotaBucket{})
		return
	}
	if burst <= 0 {
		burst = rate
	}
	e.setQuotaLocked(ts, quotaBucket{rate: rate, burst: burst, tokens: burst, last: time.Now()})
}

// setQuotaLocked replaces ts's quota with q and keeps e.quotas in step.
// Callers hold e.mu.
func (e *Engine) setQuotaLocked(ts *tenantState, q quotaBucket) {
	switch {
	case q.active() && !ts.quota.active():
		e.quotas.Add(1)
	case !q.active() && ts.quota.active():
		e.quotas.Add(-1)
	}
	ts.quota = q
}

// RemoveTenant forgets a tenant's weight, quota, and counters — a serving
// layer calls it when the tenant (graph) is evicted, so a re-registered
// name starts fresh. Tenants with queued waiters are kept until the queue
// empties; their configuration is reset either way.
func (e *Engine) RemoveTenant(tenant string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	ts, ok := e.tenants[tenant]
	if !ok {
		return
	}
	e.setQuotaLocked(ts, quotaBucket{})
	if len(ts.waiters) > 0 {
		ts.weight = 1
		ts.admitted, ts.waited, ts.waitNanos, ts.rejQuota = 0, 0, 0, 0
		return
	}
	delete(e.tenants, tenant)
}

// TenantStats snapshots one tenant's scheduling and quota state (zero
// values for tenants the engine has never seen).
func (e *Engine) TenantStats(tenant string) TenantStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	ts, ok := e.tenants[tenant]
	if !ok {
		return TenantStats{Tenant: tenant, Weight: 1}
	}
	out := TenantStats{
		Tenant:            tenant,
		Weight:            ts.weight,
		Queued:            len(ts.waiters),
		Admitted:          ts.admitted,
		Waited:            ts.waited,
		WaitedNanos:       ts.waitNanos,
		RejectedOverQuota: ts.rejQuota,
	}
	if ts.quota.active() {
		ts.quota.refill(time.Now())
		out.QuotaRate = ts.quota.rate
		out.QuotaBurst = ts.quota.burst
		out.QuotaTokens = ts.quota.tokens
	}
	return out
}

// Admit asks to start a request of the given cost (in sample-draw units;
// pass 0 when no meaningful cost applies). On success it returns a release
// function that must be called exactly once when the request finishes
// (idempotent: extra calls are no-ops). Admit blocks only while the
// request is queued; queued requests leave promptly when ctx is cancelled
// or the engine drains. The tenant tag on ctx (WithTenant) selects the
// waiting queue and quota; a request is only admitted immediately when a
// token is free AND no request is queued, so new arrivals cannot barge
// past waiters.
//
// When ctx carries a telemetry trace, a successful Admit records its full
// duration under PhaseAdmission — ≈0 on the fast path, the queue wait when
// the engine is saturated. Untraced requests pay one context lookup.
func (e *Engine) Admit(ctx context.Context, cost int64) (release func(), err error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tr := telemetry.FromContext(ctx)
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	admitted := func(release func()) (func(), error) {
		if tr != nil {
			tr.Add(telemetry.PhaseAdmission, time.Since(t0))
		}
		return release, nil
	}
	switch {
	case e.isClosed():
		return nil, ErrClosed
	case e.draining.Load():
		e.rejDrain.Add(1)
		return nil, ErrDraining
	}
	if e.maxCost > 0 && cost > e.maxCost {
		e.rejCost.Add(1)
		return nil, fmt.Errorf("%w: cost %d > limit %d", ErrOverCost, cost, e.maxCost)
	}
	tenant := TenantFromContext(ctx)

	e.mu.Lock()
	ts := e.tenantLocked(tenant)
	if ts.quota.active() && !ts.quota.debit(cost, time.Now()) {
		rate, burst := ts.quota.rate, ts.quota.burst
		ts.rejQuota++
		e.mu.Unlock()
		e.rejQuota.Add(1)
		return nil, fmt.Errorf("%w: tenant %q cost %d exceeds the bucket (rate %g/s, burst %g)",
			ErrOverQuota, tenant, cost, rate, burst)
	}
	if e.maxInFlight <= 0 { // unlimited admission: count only
		ts.admitted++
		e.mu.Unlock()
		e.inFlight.Add(1)
		e.admitted.Add(1)
		return admitted(e.releaseFunc())
	}
	// Fast path — but never past a waiter: a free token with a non-empty
	// queue belongs to the queue (the barging fix; the old non-blocking
	// send raced new arrivals against waiters on one channel and let a
	// sustained flood starve a queued request indefinitely).
	if e.held < e.maxInFlight && e.waiting == 0 {
		e.held++
		ts.admitted++
		e.mu.Unlock()
		e.inFlight.Add(1)
		e.admitted.Add(1)
		return admitted(e.tokenRelease())
	}
	if e.waiting >= e.queueCap {
		e.mu.Unlock()
		e.rejQueue.Add(1)
		return nil, fmt.Errorf("%w: %d in flight, %d waiting", ErrQueueFull, e.maxInFlight, e.queueCap)
	}
	w := &waiter{ts: ts, seq: e.arrival, ready: make(chan struct{}, 1)}
	e.arrival++
	// A tenant entering contention starts at the virtual clock, not at its
	// stale pass from a previous burst — otherwise a long-idle tenant
	// would monopolize grants while it "caught up".
	if len(ts.waiters) == 0 && ts.pass < e.vclock {
		ts.pass = e.vclock
	}
	ts.waiters = append(ts.waiters, w)
	e.waiting++
	e.mu.Unlock()

	wait := time.Now()
	select {
	case <-w.ready:
		d := time.Since(wait)
		e.waited.Add(1)
		e.waitNanos.Add(uint64(d))
		e.mu.Lock()
		ts.waited++
		ts.waitNanos += uint64(d)
		ts.admitted++
		e.mu.Unlock()
		e.inFlight.Add(1)
		e.admitted.Add(1)
		return admitted(e.tokenRelease())
	case <-ctx.Done():
		if e.abandon(w) {
			e.canceled.Add(1)
		}
		return nil, ctx.Err()
	case <-e.drainCh:
		if e.abandon(w) {
			e.rejDrain.Add(1)
			return nil, ErrDraining
		}
		return nil, ErrDraining
	case <-e.done:
		e.abandon(w)
		return nil, ErrClosed
	}
}

// abandon removes a waiter that stopped waiting (cancel, drain, close).
// It returns true if the waiter was still queued; false means a grant
// raced the abandonment and handed the waiter a token, which abandon
// passes on (or frees) so it is never lost.
func (e *Engine) abandon(w *waiter) bool {
	e.mu.Lock()
	if w.granted {
		// The token is in w.ready (or about to be): consume and hand it
		// onward outside the grantLocked call below cannot run concurrently
		// because we hold e.mu — receive after unlock.
		e.mu.Unlock()
		<-w.ready
		e.releaseToken()
		return false
	}
	q := w.ts.waiters
	for i, cand := range q {
		if cand == w {
			w.ts.waiters = append(q[:i], q[i+1:]...)
			e.waiting--
			break
		}
	}
	e.mu.Unlock()
	return true
}

// grantLocked picks the next waiter under weighted round robin and hands
// it the freed token. It returns false when no one is waiting (the caller
// frees the token instead). Callers hold e.mu.
func (e *Engine) grantLocked() bool {
	var best *tenantState
	for _, ts := range e.tenants {
		if len(ts.waiters) == 0 {
			continue
		}
		if best == nil || ts.pass < best.pass ||
			(ts.pass == best.pass && ts.waiters[0].seq < best.waiters[0].seq) {
			best = ts
		}
	}
	if best == nil {
		return false
	}
	w := best.waiters[0]
	best.waiters = best.waiters[1:]
	e.waiting--
	e.vclock = best.pass
	best.pass += 1 / float64(best.weight)
	w.granted = true
	w.ready <- struct{}{} // buffered: never blocks under e.mu
	return true
}

// releaseToken returns an admission token: to the oldest eligible waiter
// under the weighted-fair policy when one exists, to the free pool
// otherwise.
func (e *Engine) releaseToken() {
	e.mu.Lock()
	if !e.grantLocked() {
		e.held--
	}
	e.mu.Unlock()
}

// Reprice is the second phase of two-phase admission: it re-checks an
// already-admitted request against the cost cap and its tenant's quota
// with its true cost, known only after cheap preparatory work (e.g. the
// post-dedup solve cost of a planned batch). admittedCost is the cost
// declared (and quota-debited) at Admit; only the increase is debited now,
// and a downward reprice credits the difference back. The request keeps
// the admission token it holds either way — Reprice never queues and never
// blocks — so the only failures are ErrOverCost and ErrOverQuota, after
// which the caller must abandon the request and call its release function
// as usual. While no tenant has a quota, Reprice takes no lock.
func (e *Engine) Reprice(ctx context.Context, admittedCost, cost int64) error {
	if e.maxCost > 0 && cost > e.maxCost {
		e.rejCost.Add(1)
		return fmt.Errorf("%w: post-planning cost %d > limit %d", ErrOverCost, cost, e.maxCost)
	}
	if e.quotas.Load() == 0 {
		e.repriced.Add(1)
		return nil
	}
	tenant := TenantFromContext(ctx)
	e.mu.Lock()
	ts, ok := e.tenants[tenant]
	if ok && ts.quota.active() {
		now := time.Now()
		switch delta := cost - admittedCost; {
		case delta > 0:
			if !ts.quota.debit(delta, now) {
				rate, burst := ts.quota.rate, ts.quota.burst
				ts.rejQuota++
				e.mu.Unlock()
				e.rejQuota.Add(1)
				return fmt.Errorf("%w: tenant %q post-planning cost %d exceeds the bucket (rate %g/s, burst %g)",
					ErrOverQuota, tenant, cost, rate, burst)
			}
		case delta < 0:
			ts.quota.credit(-delta, now)
		}
	}
	e.mu.Unlock()
	e.repriced.Add(1)
	return nil
}

func (e *Engine) releaseFunc() func() {
	var once sync.Once
	return func() { once.Do(func() { e.inFlight.Add(-1) }) }
}

func (e *Engine) tokenRelease() func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			e.inFlight.Add(-1)
			e.releaseToken()
		})
	}
}

// Drain stops admitting: current and future Admit calls — including those
// already waiting in the queues — fail with ErrDraining, while admitted
// requests keep their tokens and the pool keeps assisting them. Intended
// for graceful shutdown: drain, let in-flight work finish, then Close.
func (e *Engine) Drain() {
	e.draining.Store(true)
	e.drainOnce.Do(func() { close(e.drainCh) })
}

// Close drains the engine and stops the pool goroutines. In-flight chunked
// phases complete on their calling goroutines (TryGo refuses new offers);
// Close does not wait for them. Safe to call more than once.
func (e *Engine) Close() {
	e.Drain()
	e.closeOnce.Do(func() { close(e.done) })
}

func (e *Engine) isClosed() bool {
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}

// Stats snapshots the engine's gauges and counters.
func (e *Engine) Stats() Stats {
	s := Stats{
		Workers:           e.workers,
		Assists:           e.assists.Load(),
		InFlight:          int(e.inFlight.Load()),
		Admitted:          e.admitted.Load(),
		RejectedQueueFull: e.rejQueue.Load(),
		RejectedOverCost:  e.rejCost.Load(),
		RejectedOverQuota: e.rejQuota.Load(),
		RejectedDraining:  e.rejDrain.Load(),
		CanceledWaiting:   e.canceled.Load(),
		Repriced:          e.repriced.Load(),
		Waited:            e.waited.Load(),
		WaitedNanos:       e.waitNanos.Load(),
	}
	e.mu.Lock()
	s.MaxInFlight = e.maxInFlight
	s.QueueCapacity = e.queueCap
	s.Queued = e.waiting
	e.mu.Unlock()
	return s
}
