package batch

import (
	"sync"
	"testing"

	"netrel/internal/core"
	"netrel/internal/preprocess"
	"netrel/internal/ugraph"
)

func job(t *testing.T, edges int, seed uint64) Job {
	t.Helper()
	g := ugraph.New(edges + 1)
	for i := 0; i < edges; i++ {
		if _, err := g.AddEdge(i, i+1, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	ts, err := ugraph.NewTerminals(g, []int{0, edges})
	if err != nil {
		t.Fatal(err)
	}
	// Distinct seeds make distinct signatures even for same-shape jobs.
	sig := preprocess.Sign(g, ts)
	sig.Lo ^= seed
	return Job{G: g, Ts: ts, Sig: sig}
}

func TestBuildDedupsAndOrdersLargestFirst(t *testing.T) {
	small := job(t, 2, 1)
	mid := job(t, 5, 2)
	big := job(t, 9, 3)
	queries := [][]Job{
		{small, mid, big},
		{mid, big},     // both shared with query 0
		{},             // empty query (disconnected/trivial upstream)
		{small, small}, // repeated within one query
	}
	p := Build(queries)
	if len(p.Unique) != 3 {
		t.Fatalf("unique = %d, want 3", len(p.Unique))
	}
	for i := 1; i < len(p.Unique); i++ {
		if p.Unique[i-1].G.M() < p.Unique[i].G.M() {
			t.Fatalf("unique not largest-first: %d then %d edges",
				p.Unique[i-1].G.M(), p.Unique[i].G.M())
		}
	}
	// Every reference must resolve to the job with the same signature.
	for q, jobs := range queries {
		if len(p.Refs[q]) != len(jobs) {
			t.Fatalf("query %d: %d refs for %d jobs", q, len(p.Refs[q]), len(jobs))
		}
		for j, u := range p.Refs[q] {
			if p.Unique[u].Sig != jobs[j].Sig {
				t.Fatalf("query %d job %d resolved to wrong unique job", q, j)
			}
		}
	}
}

func TestBuildDeterministicTieBreak(t *testing.T) {
	a := job(t, 4, 10)
	b := job(t, 4, 20) // same size, different signature
	p1 := Build([][]Job{{a, b}})
	p2 := Build([][]Job{{b, a}}) // arrival order reversed
	if len(p1.Unique) != 2 || len(p2.Unique) != 2 {
		t.Fatal("dedup broke")
	}
	for i := range p1.Unique {
		if p1.Unique[i].Sig != p2.Unique[i].Sig {
			t.Fatal("unique order depends on arrival order; must be a pure function of the job set")
		}
	}
}

func TestCacheLRUAndStats(t *testing.T) {
	c := NewCache(2)
	k := func(i uint64) Key { return Key{Sig: preprocess.Signature{Hi: i}, Fingerprint: 7} }
	if _, ok := c.Get(k(1)); ok {
		t.Fatal("empty cache hit")
	}
	c.Put(k(1), Cover{}, core.Result{Estimate: 0.1})
	c.Put(k(2), Cover{}, core.Result{Estimate: 0.2})
	if r, ok := c.Get(k(1)); !ok || r.Estimate != 0.1 {
		t.Fatal("lost entry 1")
	}
	c.Put(k(3), Cover{}, core.Result{Estimate: 0.3}) // evicts 2 (1 was just used)
	if _, ok := c.Get(k(2)); ok {
		t.Fatal("LRU evicted the wrong entry")
	}
	if _, ok := c.Get(k(1)); !ok {
		t.Fatal("recently used entry evicted")
	}
	s := c.Stats()
	if s.Entries != 2 || s.Capacity != 2 {
		t.Fatalf("occupancy %d/%d, want 2/2", s.Entries, s.Capacity)
	}
	if s.Hits != 2 || s.Misses != 2 {
		t.Fatalf("hits/misses = %d/%d, want 2/2", s.Hits, s.Misses)
	}
}

func TestCacheFingerprintSeparatesOptionSets(t *testing.T) {
	c := NewCache(8)
	sig := preprocess.Signature{Hi: 5, Lo: 9}
	c.Put(Key{Sig: sig, Fingerprint: 1}, Cover{}, core.Result{Estimate: 0.25})
	if _, ok := c.Get(Key{Sig: sig, Fingerprint: 2}); ok {
		t.Fatal("different option fingerprints must not share results")
	}
}

func TestNilCacheIsDisabled(t *testing.T) {
	c := NewCache(0)
	if c != nil {
		t.Fatal("capacity 0 should return a nil (disabled) cache")
	}
	c.Put(Key{}, Cover{}, core.Result{})
	if _, ok := c.Get(Key{}); ok {
		t.Fatal("nil cache returned a hit")
	}
	if s := c.Stats(); s != (Stats{}) {
		t.Fatalf("nil cache stats = %+v", s)
	}
}

func TestCacheConcurrentAccess(t *testing.T) {
	c := NewCache(16)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := Key{Sig: preprocess.Signature{Hi: uint64(i % 32)}}
				c.Put(k, Cover{}, core.Result{Estimate: float64(i)})
				c.Get(k)
			}
		}(w)
	}
	wg.Wait()
	if s := c.Stats(); s.Entries > 16 {
		t.Fatalf("cache exceeded capacity: %d", s.Entries)
	}
}
