package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"

	"netrel"
)

// TestServingScenario replays one daemon session end to end — multi-graph
// tenancy, every query mode, tracing, metrics, streaming, what-if and
// mutation — against the bundled Karate graph, asserting the accumulated
// counters and cross-request invariants that only a whole session shows.
// Assertions an endpoint test already makes are left to it (named inline;
// the over-quota 429 surface is TestQuotaRejection429's, QoS hot-reload
// TestPatchGraphQoS's, X-Request-Id echo TestRequestIDEcho's); what needs
// the real binary (start-up, the pprof listener, SIGTERM drain) stays in the
// CI smoke step.
func TestServingScenario(t *testing.T) {
	eng := netrel.NewEngine(netrel.EngineConfig{})
	t.Cleanup(eng.Close)
	srv, err := newServer(eng, testDefaults(), nil)
	if err != nil {
		t.Fatal(err)
	}
	karate, _, err := loadGraph("", "Karate", "small", 42)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.register(defaultGraphName, "Karate/small", karate, graphQoS{}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	post := func(path, body string, out any) {
		t.Helper()
		if code := postJSON(t, ts.URL+path, body, out); code != http.StatusOK {
			t.Fatalf("POST %s %s: status %d", path, body, code)
		}
	}
	inUnit := func(what string, r float64) {
		t.Helper()
		if r < 0 || r > 1 {
			t.Errorf("%s reliability %v outside [0,1]", what, r)
		}
	}

	// Repeated terminal sets in one batch answer bit-identically
	// (TestBatchEndpoint).
	var batch struct {
		Results []queryResponse `json:"results"`
	}
	post("/v1/batch", `{"queries":[{"terminals":[0,33]},{"terminals":[5,30]},{"terminals":[0,33]}],"samples":2000,"seed":1}`, &batch)
	for _, r := range batch.Results {
		inUnit("batch", r.Reliability)
	}

	// A graph registered at runtime is queried by name (TestMultiGraphServing).
	if code := postJSON(t, ts.URL+"/v1/graphs", `{"name":"tokyo","dataset":"Tokyo","scale":"small","seed":7}`, nil); code != http.StatusCreated {
		t.Fatalf("register status %d", code)
	}
	var single struct {
		Graph  string        `json:"graph"`
		Mode   string        `json:"mode"`
		Result queryResponse `json:"result"`
	}
	post("/v1/reliability", `{"graph":"tokyo","terminals":[0,5],"samples":2000,"seed":1}`, &single)
	if single.Graph != "tokyo" {
		t.Fatalf("answered from %q", single.Graph)
	}
	inUnit("tokyo", single.Result.Reliability)

	// One query of each remaining mode on the default graph.
	post("/v1/reliability", `{"mode":"conditional","terminals":[0,33],"evidence":[{"edge":0,"up":true}],"samples":2000,"seed":1}`, &single)
	if single.Mode != "conditional" {
		t.Fatalf("mode %q", single.Mode)
	}
	inUnit("conditional", single.Result.Reliability)
	var topk struct {
		Mode    string `json:"mode"`
		K       int    `json:"k"`
		Results []struct {
			Result queryResponse `json:"result"`
		} `json:"results"`
	}
	post("/v1/topk", `{"terminals":[0],"k":3,"samples":2000,"seed":1}`, &topk)
	if topk.Mode != "topk" || topk.K != 3 || len(topk.Results) != 3 {
		t.Fatalf("topk mode=%q k=%d results=%d", topk.Mode, topk.K, len(topk.Results))
	}
	if !sort.SliceIsSorted(topk.Results, func(i, j int) bool {
		return topk.Results[i].Result.Reliability > topk.Results[j].Result.Reliability
	}) {
		t.Errorf("topk ranking not in descending reliability: %+v", topk.Results)
	}
	post("/v1/batch", `{"queries":[{"terminals":[0,33]},{"mode":"conditional","terminals":[0,33],"evidence":[{"edge":0,"up":false}]}],"samples":2000,"seed":1}`, &batch)
	if len(batch.Results) != 2 {
		t.Fatalf("mixed batch: %d results", len(batch.Results))
	}
	for _, r := range batch.Results {
		inUnit("mixed batch", r.Reliability)
	}
	// A rejected request counts toward no mode (its message is pinned by
	// TestModeValidation).
	if code := postJSON(t, ts.URL+"/v1/reliability",
		`{"mode":"conditional","terminals":[0,33],"evidence":[{"edge":9999,"up":true}],"samples":100}`, nil); code != http.StatusBadRequest {
		t.Fatalf("bad evidence status %d", code)
	}

	var stats struct {
		Graphs map[string]graphStatsResponse `json:"graphs"`
		Engine engineStatsResponse           `json:"engine"`
		Modes  modesResponse                 `json:"modes"`
	}
	getStats := func() {
		t.Helper()
		_, body := getBody(t, ts.URL+"/v1/stats")
		if err := json.Unmarshal([]byte(body), &stats); err != nil {
			t.Fatal(err)
		}
	}
	getStats()
	if len(stats.Graphs) != 2 || stats.Graphs["tokyo"].Vertices == 0 || stats.Graphs[defaultGraphName].Vertices == 0 {
		t.Fatalf("stats graphs %v, want default and tokyo", stats.Graphs)
	}
	if stats.Engine.Workers <= 0 || stats.Engine.Admitted < 2 {
		t.Fatalf("engine stats %+v", stats.Engine)
	}
	// Terminal-set: the first batch (3), tokyo (1), the mixed batch (1).
	// Conditional: the single and the mixed batch's. Top-k counts once.
	if want := (modesResponse{TerminalSet: 5, Conditional: 2, TopK: 1}); stats.Modes != want {
		t.Fatalf("total modes %+v, want %+v", stats.Modes, want)
	}
	if want := (modesResponse{TerminalSet: 4, Conditional: 2, TopK: 1}); stats.Graphs[defaultGraphName].Modes != want {
		t.Fatalf("default graph modes %+v, want %+v", stats.Graphs[defaultGraphName].Modes, want)
	}

	// A traced query on a fresh terminal pair (a cache hit would skip
	// construct) spans the solve phases (TestTracedQueryResponse).
	post("/v1/reliability", `{"terminals":[1,32],"samples":2000,"seed":1,"trace":true}`, &single)
	if single.Result.Phases == nil {
		t.Fatal("traced query returned no phases")
	}
	var spanMS float64
	for _, sp := range single.Result.Phases.Spans {
		spanMS += sp.DurationMS
	}
	if spanMS <= 0 {
		t.Fatalf("traced spans sum to %v ms", spanMS)
	}

	_, metrics := getBody(t, ts.URL+"/metrics")
	checkPrometheusText(t, metrics)
	for _, series := range []string{
		`netrel_engine_workers`,
		`netrel_engine_admitted_total`,
		`netrel_cache_hits_total{graph="default"}`,
		`netrel_cache_misses_total{graph="default"}`,
		`netrel_planner_batches_total{graph="default"}`,
		`netrel_queries_total{graph="default",mode="conditional"}`,
		`netrel_query_duration_seconds_bucket{graph="default",mode="terminal-set",le="+Inf"}`,
		`netrel_query_duration_seconds_count{graph="tokyo",mode="terminal-set"}`,
	} {
		if metricValue(t, metrics, series+" ") < 0 {
			t.Errorf("/metrics missing %s", series)
		}
	}
	// The mode counters agree with /v1/stats plus the traced query.
	if v := metricValue(t, metrics, `netrel_queries_total{graph="default",mode="terminal-set"} `); v != 5 {
		t.Errorf("terminal-set queries = %v, want 5", v)
	}
	if v := metricValue(t, metrics, `netrel_queries_total{graph="default",mode="topk"} `); v != 1 {
		t.Errorf("topk queries = %v, want 1", v)
	}

	// A streamed query (whose event stream TestStreamingReliability checks)
	// feeds the per-graph draw counter.
	postSSE(t, ts.URL+"/v1/reliability", `{"terminals":[2,30],"samples":4000,"width":8,"seed":2,"stream":true,"rounds":4}`)
	getStats()
	if stats.Graphs[defaultGraphName].SamplesDrawn == 0 {
		t.Fatal("samples_drawn did not follow the streamed draws")
	}
	_, metrics = getBody(t, ts.URL+"/metrics")
	if v := metricValue(t, metrics, `netrel_samples_drawn_total{graph="default"} `); v <= 0 {
		t.Fatalf("netrel_samples_drawn_total = %v", v)
	}

	// What-if: the identical what-if again answers entirely from the cache
	// the first one warmed, bit-identically.
	const whatif = `{"delta":{"set_prob":[{"edge":0,"p":0.25}]},"terminals":[0,33],"samples":2000,"seed":1}`
	var w1, w2 struct {
		TopologyChanged bool          `json:"topology_changed"`
		Result          queryResponse `json:"result"`
		CacheHits       uint64        `json:"cache_hits"`
		CacheMisses     uint64        `json:"cache_misses"`
	}
	post("/v1/whatif", whatif, &w1)
	post("/v1/whatif", whatif, &w2)
	if w1.TopologyChanged {
		t.Fatal("probability delta reported as a topology change")
	}
	inUnit("what-if", w1.Result.Reliability)
	if w1.Result.Reliability != w2.Result.Reliability {
		t.Fatalf("repeated what-if diverged: %v vs %v", w1.Result.Reliability, w2.Result.Reliability)
	}
	if w2.CacheHits == 0 || w2.CacheMisses != 0 {
		t.Fatalf("repeated what-if hits/misses = %d/%d, want all hits", w2.CacheHits, w2.CacheMisses)
	}

	// Committing the previewed delta (TestMutateEndpoint checks the
	// response) answers exactly what the what-if did.
	var mut struct {
		Invalidated int `json:"invalidated"`
		Kept        int `json:"kept"`
	}
	if code := patchJSON(t, ts.URL+"/v1/graphs/default/edges", `{"set_prob":[{"edge":0,"p":0.25}]}`, &mut); code != http.StatusOK {
		t.Fatalf("mutate status %d", code)
	}
	if mut.Invalidated < 0 || mut.Kept < 0 {
		t.Fatalf("mutation outcome %+v", mut)
	}
	post("/v1/reliability", `{"terminals":[0,33],"samples":2000,"seed":1}`, &single)
	if single.Result.Reliability != w1.Result.Reliability {
		t.Fatalf("post-mutation %v differs from the what-if's %v", single.Result.Reliability, w1.Result.Reliability)
	}
	getStats()
	if g := stats.Graphs[defaultGraphName]; g.Version != 1 || g.Mutations != 1 || g.WhatIfQueries != 2 {
		t.Fatalf("default graph version/mutations/whatifs = %d/%d/%d, want 1/1/2", g.Version, g.Mutations, g.WhatIfQueries)
	}
	_, metrics = getBody(t, ts.URL+"/metrics")
	for series, want := range map[string]float64{
		`netrel_graph_mutations_total{graph="default"} `: 1,
		`netrel_whatif_queries_total{graph="default"} `:  2,
	} {
		if v := metricValue(t, metrics, series); v != want {
			t.Errorf("%s= %v, want %v", series, v, want)
		}
	}
	if metricValue(t, metrics, `netrel_cache_invalidated_total{graph="default"} `) < 0 {
		t.Error("/metrics missing netrel_cache_invalidated_total")
	}
	if v := metricValue(t, metrics, `netrel_phase_seconds_total{graph="default",phase="reindex"} `); v <= 0 {
		t.Errorf("reindex phase seconds = %v, want > 0", v)
	}
}
