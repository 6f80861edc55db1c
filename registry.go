package netrel

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry serves many named graphs over one shared Engine — the
// multi-graph tenancy layer a serving daemon builds on. Each registered
// graph owns a lazily constructed Session (its 2ECC preprocess index is
// built on the first query, not at registration, so registering a large
// graph is cheap) and its own LRU result cache, while all graphs share the
// registry's engine: one worker pool, one admission queue, one set of
// limits across every tenant.
//
// A Registry is safe for concurrent use; Register/Evict may interleave
// with queries on other graphs. Evicting a graph does not interrupt its
// in-flight queries — they hold the session and finish normally; the
// registry merely stops handing it out.
//
// SetMaxBytes adds memory governance: when the graphs' summed retained
// bytes (2ECC indexes + result caches, see Session.RetainedBytes) exceed
// the ceiling, the registry releases the memory of the
// least-recently-queried graphs — registrations are kept, only their
// rebuildable state is dropped, and the next query on a released graph
// lazily rebuilds it bit-identically.
type Registry struct {
	eng *Engine

	mu       sync.RWMutex
	graphs   map[string]*registryEntry
	cacheCap int
	maxBytes int64

	// touchSeq orders graphs by last query for pressure eviction — a
	// monotonic counter, not a clock, so recency never goes backwards.
	touchSeq     atomic.Int64
	memEvictions atomic.Uint64
}

type registryEntry struct {
	name   string
	source string
	sess   *Session
	// lastTouch is the registry's touchSeq value at this graph's most
	// recent Session fetch; pressure eviction releases the smallest first.
	lastTouch atomic.Int64
}

// GraphInfo describes one registered graph.
type GraphInfo struct {
	// Name is the registry key; Source is the free-form provenance string
	// given at registration (file path, dataset spec, …).
	Name, Source string
	// Vertices and Edges give the graph's shape.
	Vertices, Edges int
	// Version counts the mutations applied to the graph since
	// registration (see Registry.Mutate).
	Version uint64
	// IndexBuilt reports whether the 2ECC index is materialized right now
	// (built lazily on the first query, possibly released since under
	// memory pressure).
	IndexBuilt bool
	// RetainedBytes is the heap this graph retains beyond the graph
	// itself: index plus result-cache entries.
	RetainedBytes int64
}

// ErrGraphNotFound reports a lookup of an unregistered graph name; the
// returned error wraps it with the name.
var ErrGraphNotFound = fmt.Errorf("netrel: graph not registered")

// NewRegistry returns a registry whose graphs share eng; a nil eng selects
// DefaultEngine.
func NewRegistry(eng *Engine) *Registry {
	if eng == nil {
		eng = DefaultEngine()
	}
	return &Registry{
		eng:      eng,
		graphs:   make(map[string]*registryEntry),
		cacheCap: DefaultCacheCapacity,
	}
}

// Engine returns the engine shared by all registered graphs.
func (r *Registry) Engine() *Engine { return r.eng }

// SetCacheCapacity sets the per-graph result-cache capacity used for
// subsequently registered graphs (n ≤ 0 disables their caches). It is
// applied while the new session is still private, so — unlike
// Session.SetCacheCapacity — it is safe to call at any time; sessions
// already handed out are unaffected.
func (r *Registry) SetCacheCapacity(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cacheCap = n
}

// validGraphName restricts registry keys to names that any routing layer
// (URL path segments in particular) can address: 1–128 bytes of
// ASCII letters, digits, '.', '_' and '-'. A graph named "a/b" would be
// registrable but never evictable over HTTP.
func validGraphName(name string) error {
	if name == "" {
		return fmt.Errorf("netrel: graph name must not be empty")
	}
	if len(name) > 128 {
		return fmt.Errorf("netrel: graph name longer than 128 bytes")
	}
	for _, c := range []byte(name) {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return fmt.Errorf("netrel: graph name %q may use only letters, digits, '.', '_' and '-'", name)
		}
	}
	return nil
}

// Register adds g under name with a provenance string. The graph must not
// be modified afterwards. Registration is cheap — the preprocess index is
// built on the first query. It fails if the name is invalid (see
// validGraphName) or taken.
func (r *Registry) Register(name, source string, g *Graph) error {
	if err := validGraphName(name); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.graphs[name]; ok {
		return fmt.Errorf("netrel: graph %q already registered", name)
	}
	sess := newLazySession(g, r.eng)
	// The session is still private here, so resizing its cache cannot race
	// with queries.
	sess.SetCacheCapacity(r.cacheCap)
	e := &registryEntry{
		name:   name,
		source: source,
		sess:   sess,
	}
	e.lastTouch.Store(r.touchSeq.Add(1))
	r.graphs[name] = e
	return nil
}

// Session returns the named graph's session (building nothing: the index
// materializes on the session's first query). The fetch counts as a touch
// for memory-pressure recency, and triggers pressure enforcement — under
// a MaxBytes ceiling, fetching one graph may release the memory of the
// least-recently-queried others.
func (r *Registry) Session(name string) (*Session, error) {
	r.mu.RLock()
	e, ok := r.graphs[name]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrGraphNotFound, name)
	}
	e.lastTouch.Store(r.touchSeq.Add(1))
	r.enforceBytes(name)
	return e.sess, nil
}

// Mutate applies delta to the named graph in place — same name, same
// session, same registration — via Session.Mutate: the graph version
// advances, the 2ECC index is kept or rebuilt, and only the cache
// entries the delta's components cover are invalidated. See
// MutateContext.
func (r *Registry) Mutate(name string, delta GraphDelta) (*MutationStats, error) {
	return r.MutateContext(context.Background(), name, delta)
}

// MutateContext is Mutate with a context for telemetry (the mutation's
// reindex and invalidate spans land on the context's trace). The
// mutation counts as a touch for memory-pressure recency, and triggers
// pressure enforcement afterwards — a mutation that grew the retained
// index may release colder graphs.
func (r *Registry) MutateContext(ctx context.Context, name string, delta GraphDelta) (*MutationStats, error) {
	r.mu.RLock()
	e, ok := r.graphs[name]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrGraphNotFound, name)
	}
	e.lastTouch.Store(r.touchSeq.Add(1))
	stats, err := e.sess.MutateContext(ctx, delta)
	if err != nil {
		return nil, err
	}
	r.enforceBytes(name)
	return stats, nil
}

// SetMaxBytes sets the registry's retained-memory ceiling: when the
// graphs' summed retained bytes exceed n, the least-recently-queried
// graphs' indexes and caches are released (registrations stay; the next
// query rebuilds lazily and bit-identically). n ≤ 0 disables governance.
// The ceiling is a pressure target — enforcement runs on Session fetches
// and registrations, and the graph being fetched is never released, so a
// single graph larger than n simply stays resident alone.
func (r *Registry) SetMaxBytes(n int64) {
	r.mu.Lock()
	r.maxBytes = n
	r.mu.Unlock()
	r.enforceBytes("")
}

// RetainedBytes sums every registered graph's retained bytes.
func (r *Registry) RetainedBytes() int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var total int64
	for _, e := range r.graphs {
		total += e.sess.RetainedBytes()
	}
	return total
}

// MemoryEvictions counts graphs whose memory was released by pressure
// enforcement since the registry was created.
func (r *Registry) MemoryEvictions() uint64 { return r.memEvictions.Load() }

// enforceBytes releases least-recently-queried graphs' memory until the
// summed retained bytes fit under the ceiling, never touching keep (the
// graph being fetched — releasing it would only force an immediate
// rebuild). Best-effort: sizes are sampled without holding the registry
// lock, so concurrent queries may re-grow a released graph; the next
// enforcement pass sees it again.
func (r *Registry) enforceBytes(keep string) {
	r.mu.RLock()
	max := r.maxBytes
	if max <= 0 {
		r.mu.RUnlock()
		return
	}
	type cand struct {
		e     *registryEntry
		touch int64
		bytes int64
	}
	var total int64
	cands := make([]cand, 0, len(r.graphs))
	for _, e := range r.graphs {
		b := e.sess.RetainedBytes()
		total += b
		if e.name != keep && b > 0 {
			cands = append(cands, cand{e: e, touch: e.lastTouch.Load(), bytes: b})
		}
	}
	r.mu.RUnlock()
	if total <= max {
		return
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].touch < cands[j].touch })
	for _, c := range cands {
		if total <= max {
			break
		}
		c.e.sess.ReleaseMemory()
		r.memEvictions.Add(1)
		total -= c.bytes
	}
}

// Evict removes the named graph, returning false if it was not registered.
// In-flight queries on its session finish normally.
func (r *Registry) Evict(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.graphs[name]
	delete(r.graphs, name)
	return ok
}

// Len returns the number of registered graphs.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.graphs)
}

// List describes every registered graph, sorted by name.
func (r *Registry) List() []GraphInfo {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]GraphInfo, 0, len(r.graphs))
	for _, e := range r.graphs {
		out = append(out, GraphInfo{
			Name:          e.name,
			Source:        e.source,
			Vertices:      e.sess.Graph().N(),
			Edges:         e.sess.Graph().M(),
			Version:       e.sess.GraphVersion(),
			IndexBuilt:    e.sess.IndexBuilt(),
			RetainedBytes: e.sess.RetainedBytes(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
