package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"netrel"
)

// quickstartGraph is the 4-cycle from the package quick start.
func quickstartGraph(t *testing.T) *netrel.Graph {
	t.Helper()
	g, err := netrel.FromEdges(4, []netrel.Edge{
		{U: 0, V: 1, P: 0.9}, {U: 1, V: 2, P: 0.8}, {U: 2, V: 3, P: 0.9}, {U: 3, V: 0, P: 0.7},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func testDefaults() defaults {
	return defaults{samples: 1000, width: 1000, maxBody: 1 << 20, cacheCap: 128}
}

func newTestServer(t *testing.T, eng *netrel.Engine, def defaults) (*server, *httptest.Server) {
	t.Helper()
	if eng == nil {
		eng = netrel.NewEngine(netrel.EngineConfig{})
		t.Cleanup(eng.Close)
	}
	srv, err := newServer(eng, def, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.register(defaultGraphName, "test", quickstartGraph(t), graphQoS{}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func testServer(t *testing.T) (*server, *httptest.Server) {
	t.Helper()
	return newTestServer(t, nil, testDefaults())
}

func postJSON(t *testing.T, url string, body string, out any) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding response: %v", err)
		}
	}
	return resp.StatusCode
}

func defaultSession(t *testing.T, srv *server) *netrel.Session {
	t.Helper()
	sess, err := srv.reg.Session(defaultGraphName)
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

func TestHealthz(t *testing.T) {
	_, ts := testServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
}

func TestSingleReliabilityMatchesLibrary(t *testing.T) {
	srv, ts := testServer(t)
	var got struct {
		Graph  string        `json:"graph"`
		Result queryResponse `json:"result"`
	}
	code := postJSON(t, ts.URL+"/v1/reliability",
		`{"terminals":[0,2],"samples":5000,"seed":7}`, &got)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if got.Graph != defaultGraphName {
		t.Fatalf("answered from graph %q", got.Graph)
	}
	want, err := netrel.NewSession(defaultSession(t, srv).Graph()).Reliability([]int{0, 2},
		netrel.WithSamples(5000), netrel.WithSeed(7), netrel.WithMaxWidth(1000))
	if err != nil {
		t.Fatal(err)
	}
	if got.Result.Reliability != want.Reliability {
		t.Fatalf("daemon %v vs library %v", got.Result.Reliability, want.Reliability)
	}
	if got.Result.Reliability <= 0 || got.Result.Reliability >= 1 {
		t.Fatalf("implausible reliability %v", got.Result.Reliability)
	}
}

// TestReliabilityCacheCountsAreOwn: a single query's cache_hits and
// cache_misses count its own subproblem lookups, not the graph's totals.
func TestReliabilityCacheCountsAreOwn(t *testing.T) {
	_, ts := testServer(t)
	type counts struct {
		Hits   int64 `json:"cache_hits"`
		Misses int64 `json:"cache_misses"`
	}
	post := func(body string) counts {
		var got counts
		if code := postJSON(t, ts.URL+"/v1/reliability", body, &got); code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
		return got
	}
	const q = `{"terminals":[0,2],"samples":2000,"seed":7}`
	cold := post(q)
	if cold.Hits != 0 || cold.Misses == 0 {
		t.Fatalf("cold query: %+v, want misses only", cold)
	}
	if warm := post(q); warm != (counts{Hits: cold.Misses}) {
		t.Fatalf("warm query: %+v, want %d hits and no misses", warm, cold.Misses)
	}
}

func TestExactQuery(t *testing.T) {
	_, ts := testServer(t)
	var got struct {
		Result queryResponse `json:"result"`
	}
	code := postJSON(t, ts.URL+"/v1/reliability", `{"terminals":[0,2],"exact":true}`, &got)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if !got.Result.Exact {
		t.Fatal("exact query returned a sampled result")
	}
}

func TestBatchEndpoint(t *testing.T) {
	srv, ts := testServer(t)
	var got struct {
		Results        []queryResponse `json:"results"`
		CacheHits      uint64          `json:"cache_hits"`
		CacheMisses    uint64          `json:"cache_misses"`
		QueriesPlanned uint64          `json:"queries_planned"`
		QueriesDeduped uint64          `json:"queries_deduped"`
	}
	body := `{"queries":[{"terminals":[0,2]},{"terminals":[1,3]},{"terminals":[0,2]}],"samples":2000,"seed":3}`
	code := postJSON(t, ts.URL+"/v1/batch", body, &got)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(got.Results) != 3 {
		t.Fatalf("%d results, want 3", len(got.Results))
	}
	// Queries 0 and 2 share a terminal set: planned once, one deduped.
	if got.QueriesPlanned != 2 || got.QueriesDeduped != 1 {
		t.Fatalf("planned/deduped = %d/%d, want 2/1", got.QueriesPlanned, got.QueriesDeduped)
	}
	// Queries 0 and 2 are identical; the dedup must make them bit-equal.
	if got.Results[0].Reliability != got.Results[2].Reliability {
		t.Fatal("identical queries diverged in one batch")
	}
	want, err := netrel.NewSession(defaultSession(t, srv).Graph()).Reliability([]int{0, 2},
		netrel.WithSamples(2000), netrel.WithSeed(3), netrel.WithMaxWidth(1000))
	if err != nil {
		t.Fatal(err)
	}
	if got.Results[0].Reliability != want.Reliability {
		t.Fatalf("batch %v vs library %v", got.Results[0].Reliability, want.Reliability)
	}
	if got.CacheMisses == 0 {
		t.Fatal("first batch should have missed the cache")
	}

	// The same batch again is served from cache, identically.
	var warm struct {
		Results     []queryResponse `json:"results"`
		CacheHits   uint64          `json:"cache_hits"`
		CacheMisses uint64          `json:"cache_misses"`
	}
	if code := postJSON(t, ts.URL+"/v1/batch", body, &warm); code != http.StatusOK {
		t.Fatalf("warm status %d", code)
	}
	if warm.CacheMisses != 0 || warm.CacheHits == 0 {
		t.Fatalf("warm batch hits/misses = %d/%d, want all hits", warm.CacheHits, warm.CacheMisses)
	}
	if warm.Results[0].Reliability != got.Results[0].Reliability {
		t.Fatal("warm batch diverged from cold batch")
	}
}

// TestConditionalQueryEndpoint: on the 4-cycle, observing edge 3 (3–0,
// p=0.7) down leaves 0–1–2 as the only route between terminals 0 and 2, so
// the exact conditional reliability is 0.9·0.8 = 0.72.
func TestConditionalQueryEndpoint(t *testing.T) {
	_, ts := testServer(t)
	var got struct {
		Mode   string        `json:"mode"`
		Result queryResponse `json:"result"`
	}
	code := postJSON(t, ts.URL+"/v1/reliability",
		`{"mode":"conditional","terminals":[0,2],"evidence":[{"edge":3,"up":false}],"exact":true}`, &got)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if got.Mode != "conditional" {
		t.Fatalf("mode %q", got.Mode)
	}
	if !got.Result.Exact {
		t.Fatal("exact conditional query returned a sampled result")
	}
	if d := got.Result.Reliability - 0.72; d > 1e-9 || d < -1e-9 {
		t.Fatalf("conditional reliability %v, want 0.72", got.Result.Reliability)
	}
}

// TestTopKEndpoint: the ranking must match the library's TopKReliable under
// the daemon's option defaults.
func TestTopKEndpoint(t *testing.T) {
	srv, ts := testServer(t)
	var got struct {
		Mode    string `json:"mode"`
		K       int    `json:"k"`
		Results []struct {
			Vertex int           `json:"vertex"`
			Result queryResponse `json:"result"`
		} `json:"results"`
	}
	code := postJSON(t, ts.URL+"/v1/topk", `{"terminals":[0],"k":2,"samples":2000,"seed":11}`, &got)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if got.Mode != "topk" || got.K != 2 || len(got.Results) != 2 {
		t.Fatalf("mode=%q k=%d results=%d", got.Mode, got.K, len(got.Results))
	}
	want, err := netrel.NewSession(defaultSession(t, srv).Graph()).TopKReliable(
		netrel.QuerySpec{Mode: netrel.ModeTopK, Terminals: []int{0}, K: 2},
		netrel.WithSamples(2000), netrel.WithSeed(11), netrel.WithMaxWidth(1000))
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range got.Results {
		if e.Vertex != want[i].Vertex || e.Result.Reliability != want[i].Result.Reliability {
			t.Fatalf("rank %d: daemon (%d, %v) vs library (%d, %v)",
				i, e.Vertex, e.Result.Reliability, want[i].Vertex, want[i].Result.Reliability)
		}
	}
}

// TestMixedBatchAndModeCounters drives one query of each mode — a mixed
// batch included — and asserts the per-mode counters in /v1/stats.
func TestMixedBatchAndModeCounters(t *testing.T) {
	_, ts := testServer(t)
	var batch struct {
		Results []queryResponse `json:"results"`
	}
	code := postJSON(t, ts.URL+"/v1/batch",
		`{"queries":[{"terminals":[0,2]},{"mode":"conditional","terminals":[0,2],"evidence":[{"edge":0,"up":true}]},{"terminals":[0,2]}],"samples":1000,"seed":2}`,
		&batch)
	if code != http.StatusOK {
		t.Fatalf("mixed batch status %d", code)
	}
	if len(batch.Results) != 3 {
		t.Fatalf("%d results, want 3", len(batch.Results))
	}
	// Conditioning on edge 0 up can only raise the reliability.
	if batch.Results[1].Reliability <= batch.Results[0].Reliability {
		t.Fatalf("conditional %v not above unconditional %v",
			batch.Results[1].Reliability, batch.Results[0].Reliability)
	}
	if code := postJSON(t, ts.URL+"/v1/reliability",
		`{"mode":"conditional","terminals":[1,3],"evidence":[{"edge":1,"up":false}]}`, nil); code != http.StatusOK {
		t.Fatalf("single conditional status %d", code)
	}
	if code := postJSON(t, ts.URL+"/v1/topk", `{"terminals":[0],"k":1}`, nil); code != http.StatusOK {
		t.Fatalf("topk status %d", code)
	}

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Graphs map[string]graphStatsResponse `json:"graphs"`
		Modes  modesResponse                 `json:"modes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	// 2 terminal-set (in the batch), 2 conditional (one batched, one
	// single), 1 topk (counted once, not per candidate).
	want := modesResponse{TerminalSet: 2, Conditional: 2, TopK: 1}
	if stats.Modes != want {
		t.Fatalf("total modes %+v, want %+v", stats.Modes, want)
	}
	if got := stats.Graphs[defaultGraphName].Modes; got != want {
		t.Fatalf("graph modes %+v, want %+v", got, want)
	}
}

// TestModeValidation: malformed mode-polymorphic requests fail with a 400
// whose message names the offending index and the query's mode.
func TestModeValidation(t *testing.T) {
	_, ts := testServer(t)
	cases := []struct {
		url, body, wantErr string
	}{
		{"/v1/reliability", `{"mode":"nope","terminals":[0,2]}`, `unknown mode "nope"`},
		{"/v1/reliability", `{"mode":"topk","terminals":[0,2]}`, "/v1/topk"},
		{"/v1/reliability", `{"terminals":[0,99]}`, "terminal-set query: terminals[1] = 99 out of range [0,4)"},
		{"/v1/reliability", `{"terminals":[0,2],"evidence":[{"edge":0,"up":true}]}`, "cannot carry evidence"},
		{"/v1/reliability", `{"mode":"conditional","terminals":[0,2],"evidence":[{"edge":9,"up":true}]}`,
			"conditional query: evidence[0].edge = 9 out of range [0,4)"},
		{"/v1/batch", `{"queries":[{"terminals":[0,2]},{"mode":"conditional","terminals":[0,2],"evidence":[{"edge":-1,"up":false}]}]}`,
			"query 1: conditional query: evidence[0].edge = -1 out of range [0,4)"},
		{"/v1/topk", `{"terminals":[7],"k":2}`, "topk query: terminals[0] = 7 out of range [0,4)"},
		{"/v1/topk", `{"terminals":[0],"k":0}`, "k > 0"},
		{"/v1/topk", `{"terminals":[0],"k":2,"evidence":[{"edge":4,"up":true}]}`,
			"topk query: evidence[0].edge = 4 out of range [0,4)"},
	}
	for _, c := range cases {
		var got map[string]string
		if code := postJSON(t, ts.URL+c.url, c.body, &got); code != http.StatusBadRequest {
			t.Errorf("POST %s %q: status %d, want 400", c.url, c.body, code)
		} else if !strings.Contains(got["error"], c.wantErr) {
			t.Errorf("POST %s %q: error %q does not contain %q", c.url, c.body, got["error"], c.wantErr)
		}
	}
}

func TestStatsEndpoint(t *testing.T) {
	_, ts := testServer(t)
	postJSON(t, ts.URL+"/v1/reliability", `{"terminals":[0,2]}`, nil)
	postJSON(t, ts.URL+"/v1/batch", `{"queries":[{"terminals":[0,3]}]}`, nil)
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Engine         engineStatsResponse           `json:"engine"`
		Graphs         map[string]graphStatsResponse `json:"graphs"`
		Queries        uint64                        `json:"queries"`
		BatchRequests  uint64                        `json:"batch_requests"`
		BatchedQueries uint64                        `json:"batched_queries"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	def, ok := stats.Graphs[defaultGraphName]
	if !ok {
		t.Fatalf("stats missing the default graph: %v", stats.Graphs)
	}
	if def.Vertices != 4 || def.Edges != 4 {
		t.Fatalf("graph shape %d/%d", def.Vertices, def.Edges)
	}
	if !def.IndexBuilt {
		t.Fatal("index should be built after the first query")
	}
	if stats.Queries != 1 || stats.BatchRequests != 1 || stats.BatchedQueries != 1 {
		t.Fatalf("counters %d/%d/%d", stats.Queries, stats.BatchRequests, stats.BatchedQueries)
	}
	if def.Cache.Capacity != 128 {
		t.Fatalf("cache capacity %d", def.Cache.Capacity)
	}
	if def.Planner.Batches != 1 || def.Planner.Queries != 1 || def.Planner.Planned != 1 {
		t.Fatalf("planner stats %+v, want 1 batch / 1 query / 1 planned", def.Planner)
	}
	if stats.Engine.Workers <= 0 {
		t.Fatalf("engine workers %d", stats.Engine.Workers)
	}
	if stats.Engine.Admitted < 2 {
		t.Fatalf("engine admitted %d, want ≥ 2", stats.Engine.Admitted)
	}
}

func TestMultiGraphServing(t *testing.T) {
	_, ts := testServer(t)

	// Register a second graph from a bundled dataset.
	var reg struct {
		Name     string `json:"name"`
		Vertices int    `json:"vertices"`
	}
	code := postJSON(t, ts.URL+"/v1/graphs",
		`{"name":"karate","dataset":"Karate","scale":"small","seed":1}`, &reg)
	if code != http.StatusCreated {
		t.Fatalf("register status %d", code)
	}
	if reg.Vertices != 34 {
		t.Fatalf("registered %d vertices", reg.Vertices)
	}
	// Duplicate names conflict.
	if code := postJSON(t, ts.URL+"/v1/graphs",
		`{"name":"karate","dataset":"Karate"}`, nil); code != http.StatusConflict {
		t.Fatalf("duplicate register status %d", code)
	}

	// Register a third from inline TSV content.
	g := quickstartGraph(t)
	var tsv strings.Builder
	if err := g.Write(&tsv); err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(map[string]string{"name": "uploaded", "tsv": tsv.String()})
	if err != nil {
		t.Fatal(err)
	}
	if code := postJSON(t, ts.URL+"/v1/graphs", string(body), nil); code != http.StatusCreated {
		t.Fatalf("tsv register status %d", code)
	}

	// List shows all three, lazily indexed.
	var list struct {
		Graphs []struct {
			Name       string `json:"name"`
			IndexBuilt bool   `json:"index_built"`
		} `json:"graphs"`
	}
	resp, err := http.Get(ts.URL + "/v1/graphs")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Graphs) != 3 {
		t.Fatalf("%d graphs listed, want 3", len(list.Graphs))
	}
	for _, g := range list.Graphs {
		if g.Name == "karate" && g.IndexBuilt {
			t.Fatal("karate index built before any query")
		}
	}

	// Query each graph explicitly; same terminals, different graphs,
	// different answers.
	var a, b struct {
		Graph  string        `json:"graph"`
		Result queryResponse `json:"result"`
	}
	if code := postJSON(t, ts.URL+"/v1/reliability",
		`{"graph":"karate","terminals":[0,33],"samples":2000,"seed":5}`, &a); code != http.StatusOK {
		t.Fatalf("karate query status %d", code)
	}
	if a.Graph != "karate" {
		t.Fatalf("answered from %q", a.Graph)
	}
	if code := postJSON(t, ts.URL+"/v1/reliability",
		`{"graph":"uploaded","terminals":[0,2],"samples":2000,"seed":5}`, &b); code != http.StatusOK {
		t.Fatalf("uploaded query status %d", code)
	}
	// Batch against a named graph works too.
	if code := postJSON(t, ts.URL+"/v1/batch",
		`{"graph":"karate","queries":[{"terminals":[0,33]},{"terminals":[5,30]}],"samples":1000}`, nil); code != http.StatusOK {
		t.Fatalf("karate batch status %d", code)
	}

	// Unknown graph → 404.
	if code := postJSON(t, ts.URL+"/v1/reliability",
		`{"graph":"nope","terminals":[0,1]}`, nil); code != http.StatusNotFound {
		t.Fatalf("unknown graph status %d", code)
	}

	// Evict and verify it is gone; the default graph is protected.
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/graphs/karate", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("evict status %d", resp.StatusCode)
	}
	if code := postJSON(t, ts.URL+"/v1/reliability",
		`{"graph":"karate","terminals":[0,33]}`, nil); code != http.StatusNotFound {
		t.Fatalf("evicted graph still served: status %d", code)
	}
	req, err = http.NewRequest(http.MethodDelete, ts.URL+"/v1/graphs/"+defaultGraphName, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("default graph evicted: status %d", resp.StatusCode)
	}
}

func TestGraphLimit(t *testing.T) {
	def := testDefaults()
	def.maxGraphs = 2 // the default graph + one more
	_, ts := newTestServer(t, nil, def)
	if code := postJSON(t, ts.URL+"/v1/graphs",
		`{"name":"second","dataset":"Karate"}`, nil); code != http.StatusCreated {
		t.Fatalf("register within limit: status %d", code)
	}
	var got map[string]string
	if code := postJSON(t, ts.URL+"/v1/graphs",
		`{"name":"third","dataset":"Karate"}`, &got); code != http.StatusTooManyRequests {
		t.Fatalf("register beyond limit: status %d, want 429", code)
	}
	if !strings.Contains(got["error"], "graph limit") {
		t.Fatalf("error %q does not name the limit", got["error"])
	}
}

func TestRequestValidation(t *testing.T) {
	_, ts := testServer(t)
	cases := []struct {
		url, body string
		want      int
	}{
		{"/v1/reliability", `{"terminals":[]}`, http.StatusBadRequest},
		{"/v1/reliability", `{"terminals":[99]}`, http.StatusBadRequest},
		{"/v1/reliability", `{"bogus":1}`, http.StatusBadRequest},
		{"/v1/reliability", `not json`, http.StatusBadRequest},
		{"/v1/reliability", `{"terminals":[0,1],"estimator":"nope"}`, http.StatusBadRequest},
		{"/v1/batch", `{"queries":[]}`, http.StatusBadRequest},
		{"/v1/batch", `{"queries":[{"terminals":[0]},{"terminals":[44]}]}`, http.StatusBadRequest},
		{"/v1/graphs", `{"tsv":"1\n"}`, http.StatusBadRequest},
		{"/v1/graphs", `{"name":"x"}`, http.StatusBadRequest},
		{"/v1/graphs", `{"name":"x","tsv":"bogus","dataset":"Karate"}`, http.StatusBadRequest},
		// Unroutable names (could never be evicted via the URL path).
		{"/v1/graphs", `{"name":"a/b","dataset":"Karate"}`, http.StatusBadRequest},
		{"/v1/graphs", `{"name":"a b","dataset":"Karate"}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		var got map[string]any
		if code := postJSON(t, ts.URL+c.url, c.body, &got); code != c.want {
			t.Errorf("POST %s %q: status %d, want %d", c.url, c.body, code, c.want)
		} else if got["error"] == "" {
			t.Errorf("POST %s %q: missing error body", c.url, c.body)
		}
	}
	// A body is exactly one JSON object: trailing whitespace is fine, any
	// other trailing bytes fail the request instead of being ignored.
	trailing := []struct {
		url, body string
		want      int
	}{
		{"/v1/reliability", `{"terminals":[0,2],"samples":100,"seed":1} {"terminals":[1,3]}`, http.StatusBadRequest},
		{"/v1/reliability", `{"terminals":[0,2],"samples":100,"seed":1} garbage`, http.StatusBadRequest},
		{"/v1/reliability", `{"terminals":[0,2],"samples":100,"seed":1}]`, http.StatusBadRequest},
		{"/v1/batch", `{"queries":[{"terminals":[0,2]}]}{}`, http.StatusBadRequest},
		{"/v1/topk", `{"terminals":[0],"k":1} 1`, http.StatusBadRequest},
		{"/v1/whatif", `{"delta":{},"terminals":[0,2]} null`, http.StatusBadRequest},
		{"/v1/graphs", `{"name":"x","dataset":"Karate"} x`, http.StatusBadRequest},
		{"/v1/reliability", "{\"terminals\":[0,2],\"samples\":100,\"seed\":1} \n\t\r\n", http.StatusOK},
	}
	for _, c := range trailing {
		var got map[string]any
		code := postJSON(t, ts.URL+c.url, c.body, &got)
		if code != c.want {
			t.Errorf("POST %s %q: status %d, want %d", c.url, c.body, code, c.want)
		} else if msg, _ := got["error"].(string); c.want != http.StatusOK && !strings.HasPrefix(msg, "bad request body") {
			t.Errorf("POST %s %q: error %q, want a bad request body error", c.url, c.body, msg)
		}
	}
	// GET on a POST endpoint.
	resp, err := http.Get(ts.URL + "/v1/reliability")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status %d, want 405", resp.StatusCode)
	}
}

func TestRequestCostCaps(t *testing.T) {
	def := testDefaults()
	def.maxSamples = 5000
	def.maxWidth = 2000
	def.maxQueries = 2
	_, ts := newTestServer(t, nil, def)

	cases := []struct {
		url, body string
		want      int
	}{
		{"/v1/reliability", `{"terminals":[0,2],"samples":5001}`, http.StatusBadRequest},
		{"/v1/reliability", `{"terminals":[0,2],"width":2001}`, http.StatusBadRequest},
		{"/v1/reliability", `{"terminals":[0,2],"samples":5000,"width":2000}`, http.StatusOK},
		{"/v1/batch", `{"queries":[{"terminals":[0,2]},{"terminals":[1,3]},{"terminals":[0,3]}]}`, http.StatusBadRequest},
		{"/v1/batch", `{"queries":[{"terminals":[0,2]},{"terminals":[1,3]}]}`, http.StatusOK},
		// A duplicated terminal is one base terminal: three candidates.
		{"/v1/topk", `{"terminals":[0,0],"k":1}`, http.StatusBadRequest},
		{"/v1/topk", `{"terminals":[0,1],"k":1}`, http.StatusOK},
	}
	for _, c := range cases {
		if code := postJSON(t, ts.URL+c.url, c.body, nil); code != c.want {
			t.Errorf("POST %s %q: status %d, want %d", c.url, c.body, code, c.want)
		}
	}
}

// TestEngineCostCapTwoPhase covers the engine-level cost cap on batches,
// which is now checked in two phases: a cheap planning cost before any
// planning, then the post-dedup solve cost — unique subproblems, not raw
// query count — directly after it. Distinct over-cost batches get a JSON
// 400 naming the limit; a batch of duplicates clears the same cap because
// dedup collapses its solve cost.
func TestEngineCostCapTwoPhase(t *testing.T) {
	eng := netrel.NewEngine(netrel.EngineConfig{MaxCost: 5000})
	t.Cleanup(eng.Close)
	_, ts := newTestServer(t, eng, testDefaults())

	// 3 distinct queries → 3 unique subproblems × (2000 samples + 1000
	// construction) = 9000 > 5000: rejected after planning, naming the cap.
	var got map[string]string
	code := postJSON(t, ts.URL+"/v1/batch",
		`{"queries":[{"terminals":[0,2]},{"terminals":[1,3]},{"terminals":[0,3]}],"samples":2000}`, &got)
	if code != http.StatusBadRequest {
		t.Fatalf("over-cost batch status %d, want 400", code)
	}
	if !strings.Contains(got["error"], "5000") {
		t.Fatalf("error %q does not name the cost limit", got["error"])
	}
	// The same number of queries all sharing one terminal set dedups to a
	// single 3000-unit solve — under the cap the old queries × cost billing
	// tripped.
	var dedup struct {
		QueriesPlanned uint64 `json:"queries_planned"`
		QueriesDeduped uint64 `json:"queries_deduped"`
	}
	if code := postJSON(t, ts.URL+"/v1/batch",
		`{"queries":[{"terminals":[0,2]},{"terminals":[2,0]},{"terminals":[0,2]}],"samples":2000}`, &dedup); code != http.StatusOK {
		t.Fatalf("deduplicated batch status %d, want 200", code)
	}
	if dedup.QueriesPlanned != 1 || dedup.QueriesDeduped != 2 {
		t.Fatalf("planned/deduped = %d/%d, want 1/2", dedup.QueriesPlanned, dedup.QueriesDeduped)
	}
	st := eng.Stats()
	if st.Repriced == 0 {
		t.Fatal("no second-phase admissions recorded")
	}
	if st.RejectedOverCost != 1 {
		t.Fatalf("rejected_over_cost = %d, want 1", st.RejectedOverCost)
	}
	// Under the cap (1 × 3000 = 3000 ≤ 5000) a single query still solves.
	if code := postJSON(t, ts.URL+"/v1/batch",
		`{"queries":[{"terminals":[0,2]}],"samples":2000}`, nil); code != http.StatusOK {
		t.Fatalf("under-cost batch status %d", code)
	}
}

func TestBodySizeCap(t *testing.T) {
	def := testDefaults()
	def.maxBody = 256
	_, ts := newTestServer(t, nil, def)

	big := fmt.Sprintf(`{"terminals":[0,2],"samples":1000%s}`, strings.Repeat(" ", 300))
	var got map[string]string
	code := postJSON(t, ts.URL+"/v1/reliability", big, &got)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body status %d, want 413", code)
	}
	if !strings.Contains(got["error"], "256-byte limit") {
		t.Fatalf("error %q does not name the body limit", got["error"])
	}
}

func TestDrainingRejectsNewRequests(t *testing.T) {
	srv, ts := testServer(t)
	srv.drain()
	var got map[string]string
	if code := postJSON(t, ts.URL+"/v1/reliability", `{"terminals":[0,2]}`, &got); code != http.StatusServiceUnavailable {
		t.Fatalf("draining status %d, want 503", code)
	}
	if got["error"] == "" {
		t.Fatal("missing drain error body")
	}
	// Read-only endpoints keep working during the drain.
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats during drain: %d", resp.StatusCode)
	}
}

func TestExactTooNarrowIsClientError(t *testing.T) {
	// A 5x5 grid at width 2 cannot be solved exactly; the daemon must
	// report 400 (the caller can raise width), not 500.
	g := netrel.NewGraph(25)
	for r := 0; r < 5; r++ {
		for c := 0; c < 5; c++ {
			if c+1 < 5 {
				if err := g.AddEdge(r*5+c, r*5+c+1, 0.5); err != nil {
					t.Fatal(err)
				}
			}
			if r+1 < 5 {
				if err := g.AddEdge(r*5+c, (r+1)*5+c, 0.5); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	srv, err := newServer(netrel.DefaultEngine(), testDefaults(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.register(defaultGraphName, "grid", g, graphQoS{}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	code := postJSON(t, ts.URL+"/v1/reliability", `{"terminals":[0,24],"exact":true,"width":2}`, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("ErrNotExact status %d, want 400", code)
	}
}

func TestLoadGraphFromFileAndDataset(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.tsv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := quickstartGraph(t).Write(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	g, source, err := loadGraph(path, "", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 4 || source != path {
		t.Fatalf("loaded %d vertices from %q", g.N(), source)
	}

	g, source, err = loadGraph("", "Karate", "small", 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 34 || source != "Karate/small" {
		t.Fatalf("dataset load: n=%d source=%q", g.N(), source)
	}

	if _, _, err := loadGraph("", "NoSuch", "small", 1); err == nil {
		t.Fatal("unknown dataset accepted")
	}
	if _, _, err := loadGraph("", "Karate", "huge", 1); err == nil {
		t.Fatal("unknown scale accepted")
	}
	if _, _, err := loadGraph(filepath.Join(dir, "missing.tsv"), "", "", 0); err == nil {
		t.Fatal("missing file accepted")
	}
}

// gridGraph builds a 5x5 grid whose S2BDD exceeds small widths, so queries
// at a narrow daemon default width genuinely sample — the workload the
// streaming and anytime tests need.
func gridGraph(t *testing.T) *netrel.Graph {
	t.Helper()
	g := netrel.NewGraph(25)
	for r := 0; r < 5; r++ {
		for c := 0; c < 5; c++ {
			if c+1 < 5 {
				if err := g.AddEdge(r*5+c, r*5+c+1, 0.5); err != nil {
					t.Fatal(err)
				}
			}
			if r+1 < 5 {
				if err := g.AddEdge(r*5+c, (r+1)*5+c, 0.5); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return g
}

func gridServer(t *testing.T) (*server, *httptest.Server) {
	t.Helper()
	def := testDefaults()
	def.width = 4
	eng := netrel.NewEngine(netrel.EngineConfig{})
	t.Cleanup(eng.Close)
	srv, err := newServer(eng, def, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.register(defaultGraphName, "grid", gridGraph(t), graphQoS{}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// sseEvent is one parsed Server-Sent Event.
type sseEvent struct {
	name string
	data []byte
}

// postSSE posts a streaming request and parses the full event stream.
func postSSE(t *testing.T, url, body string) []sseEvent {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		t.Fatalf("stream content type %q", ct)
	}
	var events []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = []byte(strings.TrimPrefix(line, "data: "))
		case line == "":
			if cur.name != "" {
				events = append(events, cur)
				cur = sseEvent{}
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return events
}

// TestStreamingReliability: "stream": true turns the response into an SSE
// stream of monotonically tightening bounds, terminated by a "result" event
// bit-identical to the non-streaming answer.
func TestStreamingReliability(t *testing.T) {
	// The stream goes first: a warm cache would answer without sampling and
	// the stream would (correctly) collapse to a single final event.
	_, ts := gridServer(t)
	events := postSSE(t, ts.URL+"/v1/reliability",
		`{"terminals":[0,24],"samples":3000,"seed":7,"stream":true,"rounds":5}`)
	var progress []progressJSON
	var result *queryResponse
	for _, e := range events {
		switch e.name {
		case "progress":
			var p progressJSON
			if err := json.Unmarshal(e.data, &p); err != nil {
				t.Fatal(err)
			}
			progress = append(progress, p)
		case "result":
			var body struct {
				Result queryResponse `json:"result"`
			}
			if err := json.Unmarshal(e.data, &body); err != nil {
				t.Fatal(err)
			}
			result = &body.Result
		case "error":
			t.Fatalf("stream errored: %s", e.data)
		}
	}
	if len(progress) < 2 {
		t.Fatalf("expected multiple progress events, got %d", len(progress))
	}
	lo, hi := progress[0].Lower, progress[0].Upper
	for i, p := range progress {
		if p.Lower > p.Upper {
			t.Fatalf("progress %d inverted: [%v,%v]", i, p.Lower, p.Upper)
		}
		if p.Lower < lo-1e-12 || p.Upper > hi+1e-12 {
			t.Fatalf("progress %d widened: [%v,%v] after [%v,%v]", i, p.Lower, p.Upper, lo, hi)
		}
		lo, hi = p.Lower, p.Upper
	}
	if !progress[len(progress)-1].Done {
		t.Fatal("final progress event not marked done")
	}
	if result == nil {
		t.Fatal("stream ended without a result event")
	}
	if result.SamplesUsed == 0 {
		t.Fatal("workload not exercising the sampling path")
	}
	if result.Reliability < lo-1e-12 || result.Reliability > hi+1e-12 {
		t.Fatalf("result %v outside streamed bounds [%v,%v]", result.Reliability, lo, hi)
	}
	// eps = 0, so the round structure must be invisible in the result: the
	// plain (cache-served, hence bit-identical-or-bust) query must agree.
	var plain struct {
		Result queryResponse `json:"result"`
	}
	if code := postJSON(t, ts.URL+"/v1/reliability",
		`{"terminals":[0,24],"samples":3000,"seed":7}`, &plain); code != http.StatusOK {
		t.Fatalf("plain status %d", code)
	}
	if result.Reliability != plain.Result.Reliability || result.SamplesUsed != plain.Result.SamplesUsed {
		t.Fatalf("streamed result (%v, %d draws) differs from plain (%v, %d draws)",
			result.Reliability, result.SamplesUsed, plain.Result.Reliability, plain.Result.SamplesUsed)
	}
}

// TestStreamingBatch: a streaming batch emits per-query progress and one
// terminal result event whose answers match the non-streaming batch.
func TestStreamingBatch(t *testing.T) {
	_, ts := gridServer(t)
	body := `{"queries":[{"terminals":[0,24]},{"terminals":[0,12]}],"samples":2000,"seed":3`
	events := postSSE(t, ts.URL+"/v1/batch", body+`,"stream":true,"rounds":3}`)
	perQuery := map[int][]progressJSON{}
	var results []queryResponse
	for _, e := range events {
		switch e.name {
		case "progress":
			var p progressJSON
			if err := json.Unmarshal(e.data, &p); err != nil {
				t.Fatal(err)
			}
			perQuery[p.Query] = append(perQuery[p.Query], p)
		case "result":
			var out struct {
				Results []queryResponse `json:"results"`
			}
			if err := json.Unmarshal(e.data, &out); err != nil {
				t.Fatal(err)
			}
			results = out.Results
		case "error":
			t.Fatalf("stream errored: %s", e.data)
		}
	}
	if len(perQuery) != 2 {
		t.Fatalf("progress covered %d queries, want 2", len(perQuery))
	}
	for q, ps := range perQuery {
		lo, hi := ps[0].Lower, ps[0].Upper
		for i, p := range ps {
			if p.Lower > p.Upper || p.Lower < lo-1e-12 || p.Upper > hi+1e-12 {
				t.Fatalf("query %d progress %d not tightening: [%v,%v]", q, i, p.Lower, p.Upper)
			}
			lo, hi = p.Lower, p.Upper
		}
		if !ps[len(ps)-1].Done {
			t.Fatalf("query %d final progress not marked done", q)
		}
	}
	if len(results) != 2 {
		t.Fatalf("result event carried %d results, want 2", len(results))
	}
	// Same batch without streaming (cache or not, answers are bit-identical).
	var plain struct {
		Results []queryResponse `json:"results"`
	}
	if code := postJSON(t, ts.URL+"/v1/batch", body+`}`, &plain); code != http.StatusOK {
		t.Fatalf("plain batch status %d", code)
	}
	for i := range results {
		if results[i].Reliability != plain.Results[i].Reliability {
			t.Fatalf("query %d: streamed %v vs plain %v", i, results[i].Reliability, plain.Results[i].Reliability)
		}
	}
}

// TestAnytimeValidation: malformed anytime knobs are 400s before any event
// byte is written.
func TestAnytimeValidation(t *testing.T) {
	_, ts := testServer(t)
	cases := []struct {
		url, body, wantErr string
	}{
		{"/v1/reliability", `{"terminals":[0,2],"rounds":-1}`, "rounds"},
		{"/v1/reliability", `{"terminals":[0,2],"target_width":-0.5}`, "target_width"},
		{"/v1/reliability", `{"terminals":[0,2],"exact":true,"stream":true}`, "exact"},
		{"/v1/reliability", `{"terminals":[0,2],"exact":true,"rounds":4}`, "exact"},
		{"/v1/batch", `{"queries":[{"terminals":[0,2]}],"rounds":-2}`, "rounds"},
		{"/v1/batch", `{"queries":[{"terminals":[0,2]}],"target_width":-1}`, "target_width"},
	}
	for _, c := range cases {
		var got map[string]string
		if code := postJSON(t, ts.URL+c.url, c.body, &got); code != http.StatusBadRequest {
			t.Errorf("POST %s %q: status %d, want 400", c.url, c.body, code)
		} else if !strings.Contains(got["error"], c.wantErr) {
			t.Errorf("POST %s %q: error %q does not mention %q", c.url, c.body, got["error"], c.wantErr)
		}
	}
}

// TestSamplingCountersInStats: /v1/stats and /metrics expose the draws a
// query made, and a generous target width registers early stops.
func TestSamplingCountersInStats(t *testing.T) {
	_, ts := gridServer(t)
	if code := postJSON(t, ts.URL+"/v1/reliability",
		`{"terminals":[0,24],"samples":2000,"seed":5}`, nil); code != http.StatusOK {
		t.Fatalf("query status %d", code)
	}
	// A target width of 1 is already satisfied by the initial interval, so
	// every subproblem stops before drawing its schedule.
	if code := postJSON(t, ts.URL+"/v1/reliability",
		`{"terminals":[4,20],"samples":2000,"seed":5,"rounds":4,"target_width":1}`, nil); code != http.StatusOK {
		t.Fatalf("early-stop query status %d", code)
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Graphs       map[string]graphStatsResponse `json:"graphs"`
		SamplesDrawn uint64                        `json:"samples_drawn"`
		EarlyStops   uint64                        `json:"early_stops"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	def := stats.Graphs[defaultGraphName]
	if def.SamplesDrawn == 0 || stats.SamplesDrawn != def.SamplesDrawn {
		t.Fatalf("samples_drawn graph/total = %d/%d, want matching nonzero", def.SamplesDrawn, stats.SamplesDrawn)
	}
	if def.EarlyStops == 0 || stats.EarlyStops != def.EarlyStops {
		t.Fatalf("early_stops graph/total = %d/%d, want matching nonzero", def.EarlyStops, stats.EarlyStops)
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(mresp.Body); err != nil {
		t.Fatal(err)
	}
	for _, metric := range []string{"netrel_samples_drawn_total", "netrel_early_stops_total"} {
		if !strings.Contains(buf.String(), metric) {
			t.Errorf("/metrics missing %s", metric)
		}
	}
}

// TestConcurrentRequests hammers a bounded engine (2 in flight, deep
// queue) from 16 clients; every request must either succeed or be an
// honest 503, and the engine must report its admissions.
func TestConcurrentRequests(t *testing.T) {
	eng := netrel.NewEngine(netrel.EngineConfig{Workers: 2, MaxInFlight: 2, QueueDepth: 32})
	t.Cleanup(eng.Close)
	srv, ts := newTestServer(t, eng, testDefaults())

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"terminals":[0,%d],"samples":500,"seed":9}`, 1+i%3)
			resp, err := http.Post(ts.URL+"/v1/reliability", "application/json",
				bytes.NewReader([]byte(body)))
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
					err = fmt.Errorf("status %d", resp.StatusCode)
				}
			}
			errs <- err
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	st := srv.eng.Stats()
	if st.Admitted == 0 {
		t.Fatal("no admissions recorded")
	}
	if st.InFlight != 0 || st.Queued != 0 {
		t.Fatalf("engine not drained: in_flight=%d queued=%d", st.InFlight, st.Queued)
	}
}

// TestConcurrentCountersPerRequest fires concurrent distinct batches and
// what-ifs at one graph: every response's cache and planner counters must
// describe that request alone — its own unique-subproblem lookups and
// distinct-spec count — never other requests that overlapped it.
func TestConcurrentCountersPerRequest(t *testing.T) {
	srv, ts := testServer(t)
	g := defaultSession(t, srv).Graph()
	opts := []netrel.Option{netrel.WithSamples(20000), netrel.WithMaxWidth(2), netrel.WithSeed(5)}
	const params = `"samples":20000,"width":2,"seed":5`
	batches := [][][]int{
		{{0, 2}, {1, 3}, {2, 0}},
		{{0, 1}, {2, 3}},
		{{0, 1, 2}, {1, 2, 3}, {0, 3}, {0, 1, 2}},
		{{0, 1, 2, 3}, {3}},
	}
	// Each request's own counts, from a fresh session answering it alone.
	type counts struct{ lookups, planned, deduped uint64 }
	want := make([]counts, len(batches)+1)
	bodies := make([]string, len(batches)+1)
	for i, sets := range batches {
		queries := make([]netrel.Query, len(sets))
		parts := make([]string, len(sets))
		for j, terms := range sets {
			queries[j] = netrel.Query{Terminals: terms}
			js, err := json.Marshal(terms)
			if err != nil {
				t.Fatal(err)
			}
			parts[j] = fmt.Sprintf(`{"terminals":%s}`, js)
		}
		fresh := netrel.NewSession(g)
		if _, err := fresh.BatchReliability(queries, opts...); err != nil {
			t.Fatal(err)
		}
		ps := fresh.PlanStats()
		want[i] = counts{lookups: ps.UniqueSubproblems, planned: ps.Planned, deduped: ps.Queries - ps.Planned}
		bodies[i] = fmt.Sprintf(`{"queries":[%s],%s}`, strings.Join(parts, ","), params)
	}
	whatif := len(batches)
	fresh, err := netrel.NewSession(g).WhatIf(netrel.GraphDelta{SetProb: []netrel.EdgeProbUpdate{{Edge: 1, P: 0.5}}},
		netrel.QuerySpec{Terminals: []int{0, 2}}, append(opts, netrel.WithTrace())...)
	if err != nil {
		t.Fatal(err)
	}
	want[whatif] = counts{lookups: uint64(fresh.Phases.CacheHits + fresh.Phases.CacheMisses)}
	bodies[whatif] = `{"delta":{"set_prob":[{"edge":1,"p":0.5}]},"terminals":[0,2],` + params + `}`

	var wg sync.WaitGroup
	for round := 0; round < 6; round++ {
		for i := range bodies {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				path := "/v1/batch"
				if i == whatif {
					path = "/v1/whatif"
				}
				resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(bodies[i]))
				if err != nil {
					t.Error(err)
					return
				}
				defer resp.Body.Close()
				var got struct {
					CacheHits      uint64 `json:"cache_hits"`
					CacheMisses    uint64 `json:"cache_misses"`
					QueriesPlanned uint64 `json:"queries_planned"`
					QueriesDeduped uint64 `json:"queries_deduped"`
				}
				if resp.StatusCode != http.StatusOK {
					t.Errorf("%s: status %d", path, resp.StatusCode)
					return
				}
				if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
					t.Error(err)
					return
				}
				if got.CacheHits+got.CacheMisses != want[i].lookups {
					t.Errorf("%s %d: cache hits+misses = %d+%d, want its own %d unique subproblems",
						path, i, got.CacheHits, got.CacheMisses, want[i].lookups)
				}
				if got.QueriesPlanned != want[i].planned || got.QueriesDeduped != want[i].deduped {
					t.Errorf("%s %d: planned/deduped = %d/%d, want %d/%d",
						path, i, got.QueriesPlanned, got.QueriesDeduped, want[i].planned, want[i].deduped)
				}
			}(i)
		}
	}
	wg.Wait()
}
