package main

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"netrel"
)

// getBody fetches url and returns the status code and body text.
func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// checkPrometheusText validates the scrape the way a Prometheus parser
// would: every line is a comment or "name{labels} value" with a parseable
// value, every sample's family was declared by a preceding TYPE line, and
// histogram bucket counts are cumulative in le order.
func checkPrometheusText(t *testing.T, body string) {
	t.Helper()
	types := make(map[string]string)
	var lastBucketFamily string
	var lastCum float64 = -1
	for ln, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if line == "" {
			t.Fatalf("line %d: empty line in exposition", ln+1)
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("line %d: malformed TYPE line %q", ln+1, line)
			}
			if _, dup := types[parts[2]]; dup {
				t.Fatalf("line %d: duplicate TYPE for %s", ln+1, parts[2])
			}
			types[parts[2]] = parts[3]
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("line %d: no value separator in %q", ln+1, line)
		}
		val, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil && line[sp+1:] != "+Inf" {
			t.Fatalf("line %d: unparseable value in %q: %v", ln+1, line, err)
		}
		series := line[:sp]
		name := series
		if i := strings.IndexByte(series, '{'); i >= 0 {
			name = series[:i]
			if !strings.HasSuffix(series, "}") {
				t.Fatalf("line %d: unterminated label set in %q", ln+1, line)
			}
		}
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if f := strings.TrimSuffix(name, suffix); f != name && types[f] == "histogram" {
				family = f
			}
		}
		if _, ok := types[family]; !ok {
			t.Fatalf("line %d: sample %s has no TYPE declaration", ln+1, name)
		}
		// Bucket cumulativity within one series' run of _bucket lines.
		if strings.HasSuffix(name, "_bucket") {
			key := series[:strings.Index(series, "le=")]
			if key != lastBucketFamily {
				lastBucketFamily, lastCum = key, -1
			}
			if val < lastCum {
				t.Fatalf("line %d: non-cumulative bucket in %q", ln+1, line)
			}
			lastCum = val
		} else {
			lastBucketFamily, lastCum = "", -1
		}
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := testServer(t)

	// Per-graph and per-mode series exist from registration, before any
	// query has run.
	code, body := getBody(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	checkPrometheusText(t, body)
	for _, want := range []string{
		"# TYPE netrel_engine_workers gauge",
		"# TYPE netrel_engine_admitted_total counter",
		`netrel_engine_rejected_total{reason="queue_full"} 0`,
		`netrel_queries_total{graph="default",mode="terminal-set"} 0`,
		`netrel_queries_total{graph="default",mode="conditional"} 0`,
		`netrel_cache_hits_total{graph="default"} 0`,
		`netrel_planner_batches_total{graph="default"} 0`,
		`netrel_query_duration_seconds_bucket{graph="default",mode="terminal-set",le="+Inf"} 0`,
		`netrel_phase_seconds_total{graph="default",phase="sample"} 0`,
		"netrel_http_in_flight 1", // this scrape itself
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape missing %q", want)
		}
	}

	if code := postJSON(t, ts.URL+"/v1/reliability", `{"terminals":[0,2],"samples":2000,"seed":7}`, nil); code != http.StatusOK {
		t.Fatalf("query status %d", code)
	}
	if code := postJSON(t, ts.URL+"/v1/batch",
		`{"queries":[{"terminals":[0,2]},{"terminals":[1,3]}],"samples":1000,"seed":3}`, nil); code != http.StatusOK {
		t.Fatalf("batch status %d", code)
	}

	_, body = getBody(t, ts.URL+"/metrics")
	checkPrometheusText(t, body)
	// 1 single query + 2 batched terminal-set queries.
	for _, want := range []string{
		`netrel_queries_total{graph="default",mode="terminal-set"} 3`,
		`netrel_batch_requests_total{graph="default"} 1`,
		`netrel_batched_queries_total{graph="default"} 2`,
		`netrel_planner_batches_total{graph="default"} 1`,
		`netrel_query_duration_seconds_count{graph="default",mode="terminal-set"} 1`,
		`netrel_query_duration_seconds_count{graph="default",mode="batch"} 1`,
		`netrel_http_requests_total{code="200"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("post-query scrape missing %q", want)
		}
	}
	// Phase time accumulated: the solved query must have recorded plan and
	// construct wall-clock. (The quickstart 4-cycle solves exactly during
	// construction, so no sampling phase is guaranteed.)
	for _, phase := range []string{"plan", "construct"} {
		prefix := fmt.Sprintf("netrel_phase_seconds_total{graph=%q,phase=%q} ", "default", phase)
		idx := strings.Index(body, prefix)
		if idx < 0 {
			t.Fatalf("scrape missing %s series", phase)
		}
		rest := body[idx+len(prefix):]
		val, err := strconv.ParseFloat(rest[:strings.IndexByte(rest, '\n')], 64)
		if err != nil || val <= 0 {
			t.Errorf("phase %s seconds = %q, want > 0", phase, rest[:strings.IndexByte(rest, '\n')])
		}
	}
}

func TestMetricsPrunedOnEvict(t *testing.T) {
	_, ts := testServer(t)
	code := postJSON(t, ts.URL+"/v1/graphs", `{"name":"karate","dataset":"Karate","scale":"small"}`, nil)
	if code != http.StatusCreated {
		t.Fatalf("register status %d", code)
	}
	if code := postJSON(t, ts.URL+"/v1/reliability", `{"graph":"karate","terminals":[0,5],"samples":500}`, nil); code != http.StatusOK {
		t.Fatalf("query status %d", code)
	}
	_, body := getBody(t, ts.URL+"/metrics")
	if !strings.Contains(body, `graph="karate"`) {
		t.Fatal("scrape missing the registered graph's series")
	}
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/graphs/karate", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("evict status %d", resp.StatusCode)
	}
	_, body = getBody(t, ts.URL+"/metrics")
	checkPrometheusText(t, body)
	if strings.Contains(body, `graph="karate"`) {
		t.Fatal("evicted graph's series survived the prune")
	}
	if !strings.Contains(body, `graph="default"`) {
		t.Fatal("prune removed the default graph's series too")
	}
}

func TestTracedQueryResponse(t *testing.T) {
	_, ts := testServer(t)
	var got struct {
		Result queryResponse `json:"result"`
	}
	code := postJSON(t, ts.URL+"/v1/reliability",
		`{"terminals":[0,2],"samples":2000,"seed":7,"trace":true}`, &got)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if got.Result.Phases == nil {
		t.Fatal("traced query returned no phases")
	}
	var sum float64
	seen := make(map[string]bool)
	for _, sp := range got.Result.Phases.Spans {
		if sp.DurationMS < 0 || sp.Count <= 0 {
			t.Fatalf("implausible span %+v", sp)
		}
		seen[sp.Phase] = true
		if sp.Phase == "plan" || sp.Phase == "construct" || sp.Phase == "sample" || sp.Phase == "combine" {
			sum += sp.DurationMS
		}
	}
	for _, phase := range []string{"plan", "construct", "combine"} {
		if !seen[phase] {
			t.Errorf("traced query missing %q span (got %v)", phase, got.Result.Phases.Spans)
		}
	}
	// The solve-phase spans are disjoint, so their sum cannot exceed the
	// result's wall-clock by more than scheduling noise.
	if sum > got.Result.DurationMS*1.5+5 {
		t.Errorf("phase sum %.3fms inconsistent with duration %.3fms", sum, got.Result.DurationMS)
	}

	// An untraced query reports no phases.
	var plain struct {
		Result queryResponse `json:"result"`
	}
	if code := postJSON(t, ts.URL+"/v1/reliability", `{"terminals":[0,2],"samples":2000,"seed":7}`, &plain); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if plain.Result.Phases != nil {
		t.Fatal("untraced query returned phases")
	}
	// And tracing is observation-only: same seed, same answer.
	if plain.Result.Reliability != got.Result.Reliability {
		t.Fatalf("traced %v != untraced %v", got.Result.Reliability, plain.Result.Reliability)
	}
}

func TestTracedBatchAndTopK(t *testing.T) {
	_, ts := testServer(t)
	var batch struct {
		Results []queryResponse `json:"results"`
	}
	code := postJSON(t, ts.URL+"/v1/batch",
		`{"queries":[{"terminals":[0,2]},{"terminals":[0,2]},{"terminals":[1,3]}],"samples":1000,"seed":3,"trace":true}`, &batch)
	if code != http.StatusOK {
		t.Fatalf("batch status %d", code)
	}
	if len(batch.Results) != 3 {
		t.Fatalf("got %d results", len(batch.Results))
	}
	for i, r := range batch.Results {
		if r.Phases == nil {
			t.Fatalf("result %d has no phases", i)
		}
		if r.Phases.QueriesPlanned != 2 || r.Phases.QueriesDeduped != 1 {
			t.Fatalf("result %d planned/deduped = %d/%d, want 2/1",
				i, r.Phases.QueriesPlanned, r.Phases.QueriesDeduped)
		}
	}

	var topk struct {
		Results []struct {
			Vertex int           `json:"vertex"`
			Result queryResponse `json:"result"`
		} `json:"results"`
	}
	code = postJSON(t, ts.URL+"/v1/topk", `{"terminals":[0],"k":2,"samples":500,"trace":true}`, &topk)
	if code != http.StatusOK {
		t.Fatalf("topk status %d", code)
	}
	if len(topk.Results) != 2 {
		t.Fatalf("got %d entries", len(topk.Results))
	}
	for i, e := range topk.Results {
		if e.Result.Phases == nil {
			t.Fatalf("entry %d has no phases", i)
		}
	}
}

func TestRequestIDEcho(t *testing.T) {
	_, ts := testServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if id := resp.Header.Get("X-Request-Id"); len(id) != 16 {
		t.Fatalf("generated request id %q, want 16 hex chars", id)
	}
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", "caller-chosen-id")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if id := resp.Header.Get("X-Request-Id"); id != "caller-chosen-id" {
		t.Fatalf("echoed request id %q, want the caller's", id)
	}
}

func TestHealthzDraining(t *testing.T) {
	srv, ts := testServer(t)
	code, body := getBody(t, ts.URL+"/healthz")
	if code != http.StatusOK || !strings.Contains(body, `"status":"ok"`) {
		t.Fatalf("healthy probe = %d %q", code, body)
	}
	srv.drain()
	code, body = getBody(t, ts.URL+"/healthz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, `"status":"draining"`) {
		t.Fatalf("draining probe = %d %q, want 503 draining", code, body)
	}
}

// syncWriter makes a bytes.Buffer safe for the handler goroutines that
// write log lines after the client already saw the response.
type syncWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

func TestStructuredAndSlowQueryLogs(t *testing.T) {
	eng := netrel.NewEngine(netrel.EngineConfig{})
	t.Cleanup(eng.Close)
	var out syncWriter
	def := testDefaults()
	def.slowQuery = time.Nanosecond // every query is "slow"
	srv, err := newServer(eng, def, slog.New(slog.NewJSONHandler(&out, nil)))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.register(defaultGraphName, "test", quickstartGraph(t), graphQoS{}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)

	if code := postJSON(t, ts.URL+"/v1/reliability", `{"terminals":[0,2],"samples":1000}`, nil); code != http.StatusOK {
		t.Fatalf("query status %d", code)
	}
	// Mutations run through the same request pipeline, slow log included.
	if code := patchJSON(t, ts.URL+"/v1/graphs/default/edges", `{"set_prob":[{"edge":0,"p":0.5}]}`, nil); code != http.StatusOK {
		t.Fatalf("mutate status %d", code)
	}
	// The middleware line lands after the response; poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	for {
		logs := out.String()
		if strings.Contains(logs, `"msg":"request"`) &&
			strings.Contains(logs, `"path":"/v1/reliability"`) &&
			strings.Contains(logs, `"msg":"slow query"`) &&
			strings.Contains(logs, `"graph":"default"`) &&
			strings.Contains(logs, `"request_id"`) &&
			strings.Contains(logs, `"mode":"mutate"`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("expected request and slow-query log lines, got:\n%s", logs)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestConcurrentQueriesAndScrapes hammers the daemon with overlapping traced
// batches, metric scrapes, and graph registrations/evictions; under -race it
// is the telemetry layer's concurrency stress.
func TestConcurrentQueriesAndScrapes(t *testing.T) {
	_, ts := testServer(t)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				postJSON(t, ts.URL+"/v1/batch",
					fmt.Sprintf(`{"queries":[{"terminals":[0,2]},{"terminals":[%d,3]}],"samples":500,"seed":%d,"trace":true}`, i%3, j), nil)
			}
		}(i)
	}
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				code, body := getBody(t, ts.URL+"/metrics")
				if code != http.StatusOK {
					t.Errorf("scrape status %d", code)
					return
				}
				checkPrometheusText(t, body)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 3; j++ {
			name := fmt.Sprintf("churn%d", j)
			postJSON(t, ts.URL+"/v1/graphs", fmt.Sprintf(`{"name":%q,"dataset":"Karate","scale":"small"}`, name), nil)
			postJSON(t, ts.URL+"/v1/reliability", fmt.Sprintf(`{"graph":%q,"terminals":[0,5],"samples":200}`, name), nil)
			req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/graphs/"+name, nil)
			if resp, err := http.DefaultClient.Do(req); err == nil {
				resp.Body.Close()
			}
		}
	}()
	wg.Wait()
	code, body := getBody(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("final scrape status %d", code)
	}
	checkPrometheusText(t, body)
	if !strings.Contains(body, `netrel_batch_requests_total{graph="default"} 20`) {
		t.Error("scrape missing the 20 batch requests")
	}
}
