package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"netrel"
)

// fuzzEndpoints are the query endpoints FuzzQueryRequest posts to.
var fuzzEndpoints = []struct{ method, path string }{
	{http.MethodPost, "/v1/reliability"},
	{http.MethodPost, "/v1/batch"},
	{http.MethodPost, "/v1/topk"},
	{http.MethodPost, "/v1/whatif"},
	{http.MethodPatch, "/v1/graphs/default/edges"},
}

// FuzzQueryRequest posts arbitrary bodies to every query endpoint of a
// daemon serving the 4-cycle under small sample, width and batch caps.
// Whatever the body, the daemon must not panic, must answer JSON (or, for a
// stream, JSON events), and must never answer 500: a body that fails to
// decode or validate is the client's error, and on these budgets a valid
// one always solves. The seeds are every request of the wire contract plus
// trailing-data bodies.
func FuzzQueryRequest(f *testing.F) {
	for _, c := range contractCases() {
		for i, e := range fuzzEndpoints {
			if c.path == e.path || (strings.HasSuffix(c.path, "/edges") && strings.HasSuffix(e.path, "/edges")) {
				f.Add(uint8(i), c.body)
			}
		}
	}
	for i := range fuzzEndpoints {
		f.Add(uint8(i), `{"terminals":[0,2],"samples":100,"seed":1} {"terminals":[1,3]}`)
		f.Add(uint8(i), `{"terminals":[0,2],"samples":100,"seed":1} garbage`)
	}
	eng := netrel.NewEngine(netrel.EngineConfig{Workers: 2})
	f.Cleanup(eng.Close)
	def := testDefaults()
	def.maxSamples = 200
	def.maxWidth = 64
	def.maxQueries = 8
	f.Fuzz(func(t *testing.T, endpoint uint8, body string) {
		srv, err := newServer(eng, def, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.register(defaultGraphName, "test", quickstartGraph(t), graphQoS{}); err != nil {
			t.Fatal(err)
		}
		e := fuzzEndpoints[int(endpoint)%len(fuzzEndpoints)]
		rec := httptest.NewRecorder()
		srv.handler().ServeHTTP(rec, httptest.NewRequest(e.method, e.path, strings.NewReader(body)))
		if rec.Code == http.StatusInternalServerError {
			t.Fatalf("%s %s %q: 500 %s", e.method, e.path, body, rec.Body)
		}
		if !strings.HasPrefix(rec.Header().Get("Content-Type"), "text/event-stream") {
			if !json.Valid(rec.Body.Bytes()) {
				t.Fatalf("%s %s %q: status %d with a non-JSON body %q", e.method, e.path, body, rec.Code, rec.Body)
			}
			return
		}
		sc := bufio.NewScanner(rec.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			if data, ok := strings.CutPrefix(sc.Text(), "data: "); ok && !json.Valid([]byte(data)) {
				t.Fatalf("%s %s %q: non-JSON event data %q", e.method, e.path, body, data)
			}
		}
	})
}
