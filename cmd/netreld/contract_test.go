package main

// The wire contract of the five query endpoints: status codes, exact error
// strings, the recursive JSON key set of every body, and the SSE event
// sequence of streamed requests. Answers are compared against the library
// for the same spec rather than against golden floats, so the test holds on
// every architecture.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"netrel"
)

// contract servers, indexed by contractCase.srv.
const (
	srvMain     = iota // the 4-cycle as "default", plus "limited" and "topk-limited" (starved quotas) and "karate"
	srvDrained         // srvMain's configuration, draining
	srvGrid            // the 5x5 grid at width 4, so streamed queries sample
	srvTimedOut        // the 4-cycle under a 1ns query deadline
	numContractServers
)

func contractDefaults() defaults {
	def := testDefaults()
	def.maxSamples = 100_000
	def.maxWidth = 100_000
	def.maxQueries = 8
	def.maxBody = 2048
	return def
}

// contractServers starts one server per contract configuration, returning
// each with its default graph.
func contractServers(t *testing.T) ([numContractServers]*httptest.Server, [numContractServers]*netrel.Graph) {
	t.Helper()
	var urls [numContractServers]*httptest.Server
	var graphs [numContractServers]*netrel.Graph
	for i := range urls {
		def := contractDefaults()
		g := quickstartGraph(t)
		switch i {
		case srvGrid:
			def.width = 4
			g = gridGraph(t)
		case srvTimedOut:
			def.queryTimeout = time.Nanosecond
		}
		eng := netrel.NewEngine(netrel.EngineConfig{})
		t.Cleanup(eng.Close)
		srv, err := newServer(eng, def, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.register(defaultGraphName, "test", g, graphQoS{}); err != nil {
			t.Fatal(err)
		}
		if i == srvMain {
			if err := srv.register("limited", "test", quickstartGraph(t),
				graphQoS{quotaRate: 0.000001, quotaBurst: 5}); err != nil {
				t.Fatal(err)
			}
			if err := srv.register("topk-limited", "test", quickstartGraph(t),
				graphQoS{quotaRate: 0.000001, quotaBurst: 10}); err != nil {
				t.Fatal(err)
			}
			karate, _, err := loadGraph("", "Karate", "small", 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := srv.register("karate", "Karate/small", karate, graphQoS{}); err != nil {
				t.Fatal(err)
			}
		}
		if i == srvDrained {
			srv.drain()
		}
		urls[i] = httptest.NewServer(srv.handler())
		t.Cleanup(urls[i].Close)
		graphs[i] = g
	}
	return urls, graphs
}

// contractCase is one request and the response the contract pins. A
// non-empty err pins an error body {"error": err}; otherwise keys is the
// body's recursive key set and check compares the answer with the library.
// Streamed requests pin their SSE event names instead of a JSON body.
type contractCase struct {
	name   string
	srv    int
	method string // POST when empty
	path   string
	body   string
	status int
	err    string
	keys   []string
	check  func(t *testing.T, g *netrel.Graph, body map[string]any)
	events func(t *testing.T, g *netrel.Graph) []string
}

// nest lists a JSON object's key paths under prefix.
func nest(prefix string, keys ...string) []string {
	out := []string{prefix}
	for _, k := range keys {
		out = append(out, prefix+"."+k)
	}
	return out
}

func keySet(parts ...[]string) []string {
	var out []string
	for _, p := range parts {
		out = append(out, p...)
	}
	sort.Strings(out)
	return out
}

var resultKeys = []string{"duration_ms", "exact", "log10", "lower", "reliability", "samples_used",
	"subproblems", "upper", "variance"}

// bodyKeys is the recursive key set of a decoded JSON value: object keys as
// dotted paths, array elements under "[]" (the union over elements).
func bodyKeys(v any) []string {
	seen := map[string]bool{}
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		switch x := v.(type) {
		case map[string]any:
			for k, e := range x {
				p := k
				if prefix != "" {
					p = prefix + "." + k
				}
				seen[p] = true
				walk(p, e)
			}
		case []any:
			for _, e := range x {
				walk(prefix+"[]", e)
			}
		}
	}
	walk("", v)
	out := make([]string, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// libOpts are the library options matching a request's samples and seed
// under the contract servers' defaults (width 1000 unless given).
func libOpts(samples int, seed uint64, width int) []netrel.Option {
	return []netrel.Option{netrel.WithSamples(samples), netrel.WithSeed(seed), netrel.WithMaxWidth(width)}
}

func wantReliability(t *testing.T, got any, want float64) {
	t.Helper()
	if r, ok := got.(float64); !ok || r != want {
		t.Errorf("reliability %v, want the library's %v", got, want)
	}
}

// progressEvents lists the events a streamed request emits when the library
// reports n progress callbacks: n "progress" events, then "result".
func progressEvents(n int) []string {
	out := make([]string, n, n+1)
	for i := range out {
		out[i] = "progress"
	}
	return append(out, "result")
}

func contractCases() []contractCase {
	const over = `"samples":1000` // padded past the 2048-byte cap below
	pad := strings.Repeat(" ", 2100)
	reliabilityKeys := keySet([]string{"graph", "mode", "cache_hits", "cache_misses"}, nest("result", resultKeys...))
	return []contractCase{
		// POST /v1/reliability
		{name: "reliability", path: "/v1/reliability", body: `{"terminals":[0,2],"samples":2000,"seed":7}`,
			status: http.StatusOK, keys: reliabilityKeys,
			check: func(t *testing.T, g *netrel.Graph, b map[string]any) {
				want, err := netrel.NewSession(g).Reliability([]int{0, 2}, libOpts(2000, 7, 1000)...)
				if err != nil {
					t.Fatal(err)
				}
				wantReliability(t, b["result"].(map[string]any)["reliability"], want.Reliability)
			}},
		{name: "reliability traced conditional", path: "/v1/reliability",
			body:   `{"mode":"conditional","terminals":[1,3],"evidence":[{"edge":0,"up":true}],"samples":2000,"seed":7,"trace":true}`,
			status: http.StatusOK,
			keys: keySet(reliabilityKeys, []string{"result.phases", "result.phases.cache_hits",
				"result.phases.cache_misses", "result.phases.queries_planned", "result.phases.subproblems",
				"result.phases.spans", "result.phases.spans[].count",
				"result.phases.spans[].duration_ms", "result.phases.spans[].phase"}),
			check: func(t *testing.T, g *netrel.Graph, b map[string]any) {
				want, err := netrel.NewSession(g).Solve(netrel.QuerySpec{Mode: netrel.ModeConditional,
					Terminals: []int{1, 3}, Evidence: []netrel.EdgeObservation{{Edge: 0, Up: true}}},
					libOpts(2000, 7, 1000)...)
				if err != nil {
					t.Fatal(err)
				}
				wantReliability(t, b["result"].(map[string]any)["reliability"], want.Reliability)
			}},
		{name: "reliability exact", path: "/v1/reliability", body: `{"terminals":[0,2],"exact":true}`,
			status: http.StatusOK, keys: reliabilityKeys,
			check: func(t *testing.T, g *netrel.Graph, b map[string]any) {
				want, err := netrel.NewSession(g).Exact([]int{0, 2}, netrel.WithMaxWidth(1000))
				if err != nil {
					t.Fatal(err)
				}
				wantReliability(t, b["result"].(map[string]any)["reliability"], want.Reliability)
			}},
		{name: "reliability bad json", path: "/v1/reliability", body: `not json`,
			status: http.StatusBadRequest, err: "bad request body: invalid character 'o' in literal null (expecting 'u')"},
		{name: "reliability unknown field", path: "/v1/reliability", body: `{"terminals":[0,2],"k":2}`,
			status: http.StatusBadRequest, err: `bad request body: json: unknown field "k"`},
		{name: "reliability unknown mode", path: "/v1/reliability", body: `{"mode":"nope","terminals":[0,2]}`,
			status: http.StatusBadRequest, err: `unknown mode "nope" (want "terminal-set", "conditional" or "topk")`},
		{name: "reliability topk mode", path: "/v1/reliability", body: `{"mode":"topk","terminals":[0,2]}`,
			status: http.StatusBadRequest, err: `mode "topk" returns a ranking; POST it to /v1/topk`},
		{name: "reliability no terminals", path: "/v1/reliability", body: `{"terminals":[]}`,
			status: http.StatusBadRequest, err: "terminal-set query needs at least one terminal"},
		{name: "reliability terminal range", path: "/v1/reliability", body: `{"terminals":[0,99]}`,
			status: http.StatusBadRequest, err: "terminal-set query: terminals[1] = 99 out of range [0,4)"},
		{name: "reliability evidence without mode", path: "/v1/reliability",
			body:   `{"terminals":[0,2],"evidence":[{"edge":0,"up":true}]}`,
			status: http.StatusBadRequest, err: `terminal-set query cannot carry evidence (use mode "conditional")`},
		{name: "reliability evidence range", path: "/v1/reliability",
			body:   `{"mode":"conditional","terminals":[0,2],"evidence":[{"edge":9,"up":true}]}`,
			status: http.StatusBadRequest, err: "conditional query: evidence[0].edge = 9 out of range [0,4)"},
		{name: "reliability samples cap", path: "/v1/reliability", body: `{"terminals":[0,2],"samples":100001}`,
			status: http.StatusBadRequest, err: "samples 100001 exceeds the daemon cap 100000"},
		{name: "reliability width cap", path: "/v1/reliability", body: `{"terminals":[0,2],"width":100001}`,
			status: http.StatusBadRequest, err: "width 100001 exceeds the daemon cap 100000"},
		{name: "reliability estimator", path: "/v1/reliability", body: `{"terminals":[0,2],"estimator":"nope"}`,
			status: http.StatusBadRequest, err: `unknown estimator "nope" (want "mc" or "ht")`},
		{name: "reliability exact stream", path: "/v1/reliability", body: `{"terminals":[0,2],"exact":true,"stream":true}`,
			status: http.StatusBadRequest,
			err:    `exact queries do not sample: "stream", "rounds" and "target_width" need a sampling query`},
		{name: "reliability exact bad rounds", path: "/v1/reliability", body: `{"terminals":[0,2],"exact":true,"rounds":-1}`,
			status: http.StatusBadRequest,
			err:    `exact queries do not sample: "stream", "rounds" and "target_width" need a sampling query`},
		{name: "reliability exact over cap", path: "/v1/reliability", body: `{"terminals":[0,2],"exact":true,"stream":true,"width":100001}`,
			status: http.StatusBadRequest, err: "width 100001 exceeds the daemon cap 100000"},
		{name: "reliability rounds", path: "/v1/reliability", body: `{"terminals":[0,2],"rounds":-1}`,
			status: http.StatusBadRequest, err: "rounds must be at least 1, got -1"},
		{name: "reliability target width", path: "/v1/reliability", body: `{"terminals":[0,2],"target_width":-0.5}`,
			status: http.StatusBadRequest, err: "target_width must be non-negative, got -0.5"},
		{name: "reliability unknown graph", path: "/v1/reliability", body: `{"graph":"nope","terminals":[0,1]}`,
			status: http.StatusNotFound, err: `netrel: graph not registered: "nope"`},
		{name: "reliability unknown graph before mode", path: "/v1/reliability", body: `{"graph":"nope","mode":"nope","terminals":[]}`,
			status: http.StatusNotFound, err: `netrel: graph not registered: "nope"`},
		{name: "reliability too large", path: "/v1/reliability", body: `{"terminals":[0,2],` + over + pad + `}`,
			status: http.StatusRequestEntityTooLarge, err: "request body exceeds the 2048-byte limit"},
		{name: "reliability over quota", path: "/v1/reliability", body: `{"graph":"limited","terminals":[0,2],"samples":1000}`,
			status: http.StatusTooManyRequests,
			err:    `engine: tenant cost quota exhausted: tenant "limited" post-planning cost 1500 exceeds the bucket (rate 1e-06/s, burst 5)`},
		{name: "reliability draining", srv: srvDrained, path: "/v1/reliability", body: `{"terminals":[0,2]}`,
			status: http.StatusServiceUnavailable, err: "server is draining"},
		{name: "reliability stream", srv: srvGrid, path: "/v1/reliability",
			body: `{"terminals":[0,24],"samples":3000,"seed":7,"stream":true,"rounds":5}`, status: http.StatusOK,
			events: func(t *testing.T, g *netrel.Graph) []string {
				n := 0
				if _, err := netrel.NewSession(g).Reliability([]int{0, 24}, append(libOpts(3000, 7, 4),
					netrel.WithSampleRounds(5), netrel.WithProgress(func(netrel.Progress) { n++ }))...); err != nil {
					t.Fatal(err)
				}
				return progressEvents(n)
			}},
		{name: "reliability stream timeout", srv: srvTimedOut, path: "/v1/reliability",
			body: `{"terminals":[0,2],"stream":true}`, status: http.StatusOK, err: "context deadline exceeded",
			events: func(*testing.T, *netrel.Graph) []string { return []string{"error"} }},
		{name: "reliability timeout", srv: srvTimedOut, path: "/v1/reliability", body: `{"terminals":[0,2]}`,
			status: http.StatusGatewayTimeout, err: "context deadline exceeded"},

		// POST /v1/batch
		{name: "batch", path: "/v1/batch",
			body:   `{"queries":[{"terminals":[0,2]},{"mode":"conditional","terminals":[1,3],"evidence":[{"edge":0,"up":false}]},{"terminals":[0,2]}],"samples":2000,"seed":3}`,
			status: http.StatusOK,
			keys: keySet([]string{"graph", "duration_ms", "cache_hits", "cache_misses", "queries_planned",
				"queries_deduped", "results", "results[].bridges"}, nest("results[]", resultKeys...)[1:]),
			check: func(t *testing.T, g *netrel.Graph, b map[string]any) {
				want, err := netrel.NewSession(g).BatchReliability([]netrel.Query{
					{Terminals: []int{0, 2}},
					{Mode: netrel.ModeConditional, Terminals: []int{1, 3}, Evidence: []netrel.EdgeObservation{{Edge: 0, Up: false}}},
					{Terminals: []int{0, 2}},
				}, libOpts(2000, 3, 1000)...)
				if err != nil {
					t.Fatal(err)
				}
				for i, r := range b["results"].([]any) {
					wantReliability(t, r.(map[string]any)["reliability"], want[i].Reliability)
				}
				if b["queries_planned"] != 2.0 || b["queries_deduped"] != 1.0 {
					t.Errorf("planned/deduped = %v/%v, want 2/1", b["queries_planned"], b["queries_deduped"])
				}
			}},
		{name: "batch bad json", path: "/v1/batch", body: `{"queries":`,
			status: http.StatusBadRequest, err: "bad request body: unexpected EOF"},
		{name: "batch unknown field", path: "/v1/batch", body: `{"queries":[{"terminals":[0,2],"samples":5}]}`,
			status: http.StatusBadRequest, err: `bad request body: json: unknown field "samples"`},
		{name: "batch empty", path: "/v1/batch", body: `{"graph":"nope","queries":[]}`,
			status: http.StatusBadRequest, err: "batch needs at least one query"},
		{name: "batch cap", path: "/v1/batch", body: `{"graph":"nope","queries":[` + strings.Repeat(`{"terminals":[0]},`, 8) + `{"terminals":[1]}]}`,
			status: http.StatusBadRequest, err: "batch of 9 queries exceeds the daemon cap 8"},
		{name: "batch samples cap", path: "/v1/batch", body: `{"queries":[{"mode":"nope","terminals":[0]}],"samples":100001}`,
			status: http.StatusBadRequest, err: "samples 100001 exceeds the daemon cap 100000"},
		{name: "batch rounds", path: "/v1/batch", body: `{"queries":[{"mode":"nope","terminals":[0]}],"rounds":-2}`,
			status: http.StatusBadRequest, err: "rounds must be at least 1, got -2"},
		{name: "batch target width", path: "/v1/batch", body: `{"queries":[{"terminals":[0,2]}],"target_width":-1}`,
			status: http.StatusBadRequest, err: "target_width must be non-negative, got -1"},
		{name: "batch mode", path: "/v1/batch", body: `{"queries":[{"terminals":[0,2]},{"mode":"topk","terminals":[0]}]}`,
			status: http.StatusBadRequest, err: `query 1: mode "topk" returns a ranking; POST it to /v1/topk`},
		{name: "batch evidence range", path: "/v1/batch",
			body:   `{"queries":[{"terminals":[0,2]},{"mode":"conditional","terminals":[0,2],"evidence":[{"edge":-1,"up":false}]}]}`,
			status: http.StatusBadRequest, err: "query 1: conditional query: evidence[0].edge = -1 out of range [0,4)"},
		{name: "batch unknown graph", path: "/v1/batch", body: `{"graph":"nope","queries":[{"mode":"nope","terminals":[0]}],"samples":100001}`,
			status: http.StatusNotFound, err: `netrel: graph not registered: "nope"`},
		{name: "batch too large", path: "/v1/batch", body: `{"queries":[{"terminals":[0,2]}],` + over + pad + `}`,
			status: http.StatusRequestEntityTooLarge, err: "request body exceeds the 2048-byte limit"},
		{name: "batch over quota", path: "/v1/batch", body: `{"graph":"limited","queries":[{"terminals":[0,2]},{"terminals":[1,3]}]}`,
			status: http.StatusTooManyRequests,
			err:    `engine: tenant cost quota exhausted: tenant "limited" post-planning cost 3000 exceeds the bucket (rate 1e-06/s, burst 5)`},
		{name: "batch draining", srv: srvDrained, path: "/v1/batch", body: `{"queries":[{"terminals":[0,2]}]}`,
			status: http.StatusServiceUnavailable, err: "server is draining"},
		{name: "batch stream", srv: srvGrid, path: "/v1/batch",
			body:   `{"queries":[{"terminals":[0,24]},{"terminals":[0,12]}],"samples":2000,"seed":3,"stream":true,"rounds":3}`,
			status: http.StatusOK,
			events: func(t *testing.T, g *netrel.Graph) []string {
				n := 0
				if _, err := netrel.NewSession(g).BatchReliability([]netrel.Query{{Terminals: []int{0, 24}}, {Terminals: []int{0, 12}}},
					append(libOpts(2000, 3, 4), netrel.WithSampleRounds(3), netrel.WithProgress(func(netrel.Progress) { n++ }))...); err != nil {
					t.Fatal(err)
				}
				return progressEvents(n)
			}},

		// POST /v1/topk
		{name: "topk", path: "/v1/topk", body: `{"terminals":[0],"k":2,"samples":2000,"seed":11}`,
			status: http.StatusOK,
			keys: keySet([]string{"graph", "mode", "k", "duration_ms", "results", "results[].vertex"},
				nest("results[].result", resultKeys...)),
			check: func(t *testing.T, g *netrel.Graph, b map[string]any) {
				want, err := netrel.NewSession(g).TopKReliable(netrel.QuerySpec{Mode: netrel.ModeTopK, Terminals: []int{0}, K: 2},
					libOpts(2000, 11, 1000)...)
				if err != nil {
					t.Fatal(err)
				}
				for i, e := range b["results"].([]any) {
					e := e.(map[string]any)
					if e["vertex"] != float64(want[i].Vertex) {
						t.Errorf("rank %d: vertex %v, want %d", i, e["vertex"], want[i].Vertex)
					}
					wantReliability(t, e["result"].(map[string]any)["reliability"], want[i].Result.Reliability)
				}
			}},
		{name: "topk unknown field rounds", path: "/v1/topk", body: `{"terminals":[0],"k":2,"rounds":3}`,
			status: http.StatusBadRequest, err: `bad request body: json: unknown field "rounds"`},
		{name: "topk unknown field mode", path: "/v1/topk", body: `{"mode":"topk","terminals":[0],"k":2}`,
			status: http.StatusBadRequest, err: `bad request body: json: unknown field "mode"`},
		{name: "topk terminal range", path: "/v1/topk", body: `{"terminals":[7],"k":0}`,
			status: http.StatusBadRequest, err: "topk query: terminals[0] = 7 out of range [0,4)"},
		{name: "topk evidence range", path: "/v1/topk", body: `{"terminals":[0],"k":2,"evidence":[{"edge":4,"up":true}]}`,
			status: http.StatusBadRequest, err: "topk query: evidence[0].edge = 4 out of range [0,4)"},
		{name: "topk k", path: "/v1/topk", body: `{"terminals":[0],"k":0,"samples":100001}`,
			status: http.StatusBadRequest, err: "topk query needs k > 0, got 0"},
		{name: "topk cap", path: "/v1/topk", body: `{"graph":"karate","terminals":[0],"k":2,"samples":100001}`,
			status: http.StatusBadRequest, err: "topk scan of 33 candidate vertices exceeds the daemon batch cap 8"},
		{name: "topk estimator", path: "/v1/topk", body: `{"terminals":[0],"k":2,"estimator":"x"}`,
			status: http.StatusBadRequest, err: `unknown estimator "x" (want "mc" or "ht")`},
		{name: "topk unknown graph", path: "/v1/topk", body: `{"graph":"nope","terminals":[],"k":0}`,
			status: http.StatusNotFound, err: `netrel: graph not registered: "nope"`},
		{name: "topk too large", path: "/v1/topk", body: `{"terminals":[0],"k":2,` + over + pad + `}`,
			status: http.StatusRequestEntityTooLarge, err: "request body exceeds the 2048-byte limit"},
		// The over-quota rows before this one keep their one-unit-per-spec
		// planning debits, leaving two units: the three-candidate scan fails
		// its planning debit.
		{name: "topk over quota", path: "/v1/topk", body: `{"graph":"limited","terminals":[0],"k":2}`,
			status: http.StatusTooManyRequests,
			err:    `engine: tenant cost quota exhausted: tenant "limited" cost 3 exceeds the bucket (rate 1e-06/s, burst 5)`},
		// No other row debits "topk-limited": its ten-unit bucket covers the
		// three-unit planning debit, and the scan fails when Reprice debits
		// its solve cost.
		{name: "topk over post-planning quota", path: "/v1/topk", body: `{"graph":"topk-limited","terminals":[0],"k":2}`,
			status: http.StatusTooManyRequests,
			err:    `engine: tenant cost quota exhausted: tenant "topk-limited" post-planning cost 4500 exceeds the bucket (rate 1e-06/s, burst 10)`},
		{name: "topk draining", srv: srvDrained, path: "/v1/topk", body: `{"terminals":[0],"k":2}`,
			status: http.StatusServiceUnavailable, err: "server is draining"},

		// POST /v1/whatif
		{name: "whatif", path: "/v1/whatif", body: `{"delta":{"set_prob":[{"edge":1,"p":0.3}]},"terminals":[0,2],"samples":2000,"seed":5}`,
			status: http.StatusOK,
			keys: keySet([]string{"graph", "mode", "topology_changed", "cache_hits", "cache_misses"},
				nest("result", resultKeys...)),
			check: func(t *testing.T, g *netrel.Graph, b map[string]any) {
				mutated, err := g.Apply(netrel.GraphDelta{SetProb: []netrel.EdgeProbUpdate{{Edge: 1, P: 0.3}}})
				if err != nil {
					t.Fatal(err)
				}
				want, err := netrel.NewSession(mutated).Reliability([]int{0, 2}, libOpts(2000, 5, 1000)...)
				if err != nil {
					t.Fatal(err)
				}
				wantReliability(t, b["result"].(map[string]any)["reliability"], want.Reliability)
			}},
		{name: "whatif unknown field", path: "/v1/whatif", body: `{"delta":{},"terminals":[0,2],"stream":true}`,
			status: http.StatusBadRequest, err: `bad request body: json: unknown field "stream"`},
		{name: "whatif unknown mode", path: "/v1/whatif", body: `{"delta":{},"mode":"x","terminals":[]}`,
			status: http.StatusBadRequest, err: `unknown mode "x" (want "terminal-set", "conditional" or "topk")`},
		{name: "whatif no terminals", path: "/v1/whatif", body: `{"delta":{},"terminals":[]}`,
			status: http.StatusBadRequest, err: "terminal-set query needs at least one terminal"},
		{name: "whatif terminal range", path: "/v1/whatif", body: `{"delta":{},"terminals":[0,4]}`,
			status: http.StatusBadRequest, err: "terminal-set query: terminals[1] = 4 out of range [0,4)"},
		{name: "whatif evidence without mode", path: "/v1/whatif", body: `{"delta":{},"terminals":[0,2],"evidence":[{"edge":0,"up":true}]}`,
			status: http.StatusBadRequest, err: `terminal-set query cannot carry evidence (use mode "conditional")`},
		{name: "whatif samples cap", path: "/v1/whatif", body: `{"delta":{},"terminals":[0,2],"samples":100001}`,
			status: http.StatusBadRequest, err: "samples 100001 exceeds the daemon cap 100000"},
		{name: "whatif unknown graph", path: "/v1/whatif", body: `{"graph":"nope","delta":{},"mode":"x","terminals":[]}`,
			status: http.StatusNotFound, err: `netrel: graph not registered: "nope"`},
		{name: "whatif too large", path: "/v1/whatif", body: `{"delta":{},"terminals":[0,2],` + over + pad + `}`,
			status: http.StatusRequestEntityTooLarge, err: "request body exceeds the 2048-byte limit"},
		{name: "whatif over quota", path: "/v1/whatif", body: `{"graph":"limited","delta":{"set_prob":[{"edge":1,"p":0.3}]},"terminals":[0,2]}`,
			status: http.StatusTooManyRequests,
			err:    `engine: tenant cost quota exhausted: tenant "limited" post-planning cost 1500 exceeds the bucket (rate 1e-06/s, burst 5)`},
		{name: "whatif draining", srv: srvDrained, path: "/v1/whatif", body: `{"delta":{},"terminals":[0,2]}`,
			status: http.StatusServiceUnavailable, err: "server is draining"},

		// PATCH /v1/graphs/{name}/edges — last, since it changes the graph.
		{name: "mutate unknown field", method: http.MethodPatch, path: "/v1/graphs/default/edges", body: `{"delta":{}}`,
			status: http.StatusBadRequest, err: `bad request body: json: unknown field "delta"`},
		{name: "mutate empty", method: http.MethodPatch, path: "/v1/graphs/nope/edges", body: `{}`,
			status: http.StatusBadRequest, err: `empty delta: give "set_prob", "remove" or "add"`},
		{name: "mutate unknown graph", method: http.MethodPatch, path: "/v1/graphs/nope/edges", body: `{"remove":[0]}`,
			status: http.StatusNotFound, err: `netrel: graph not registered: "nope"`},
		{name: "mutate too large", method: http.MethodPatch, path: "/v1/graphs/default/edges", body: `{"remove":[0]` + pad + `}`,
			status: http.StatusRequestEntityTooLarge, err: "request body exceeds the 2048-byte limit"},
		{name: "mutate draining", srv: srvDrained, method: http.MethodPatch, path: "/v1/graphs/default/edges", body: `{"remove":[0]}`,
			status: http.StatusServiceUnavailable, err: "server is draining"},
		{name: "mutate", method: http.MethodPatch, path: "/v1/graphs/default/edges", body: `{"set_prob":[{"edge":0,"p":0.5}]}`,
			status: http.StatusOK,
			keys:   []string{"duration_ms", "graph", "index_updated", "invalidated", "kept", "topology_changed", "version"},
			check: func(t *testing.T, _ *netrel.Graph, b map[string]any) {
				if b["version"] != 1.0 || b["topology_changed"] != false || b["index_updated"] != true {
					t.Errorf("mutation outcome %v", b)
				}
			}},
	}
}

// readEvents parses an SSE body into its event names and, for "error"
// events, the error string.
func readEvents(t *testing.T, body string) (names []string, errMsg string) {
	t.Helper()
	for _, block := range strings.Split(strings.TrimSpace(body), "\n\n") {
		var name, data string
		for _, line := range strings.Split(block, "\n") {
			if v, ok := strings.CutPrefix(line, "event: "); ok {
				name = v
			} else if v, ok := strings.CutPrefix(line, "data: "); ok {
				data = v
			}
		}
		names = append(names, name)
		if name == "error" {
			var e map[string]string
			if err := json.Unmarshal([]byte(data), &e); err != nil {
				t.Fatalf("error event data %q: %v", data, err)
			}
			errMsg = e["error"]
		}
	}
	return names, errMsg
}

func TestWireContract(t *testing.T) {
	servers, graphs := contractServers(t)
	for _, c := range contractCases() {
		method := c.method
		if method == "" {
			method = http.MethodPost
		}
		req, err := http.NewRequest(method, servers[c.srv].URL+c.path, strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		t.Run(c.name, func(t *testing.T) {
			if resp.StatusCode != c.status {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, c.status, raw)
			}
			if c.events != nil {
				names, errMsg := readEvents(t, string(raw))
				if want := c.events(t, graphs[c.srv]); fmt.Sprint(names) != fmt.Sprint(want) {
					t.Errorf("events %v, want %v", names, want)
				}
				if errMsg != c.err {
					t.Errorf("error event %q, want %q", errMsg, c.err)
				}
				return
			}
			var body map[string]any
			if err := json.Unmarshal(raw, &body); err != nil {
				t.Fatalf("body %q: %v", raw, err)
			}
			if c.err != "" {
				if got := fmt.Sprint(bodyKeys(body)); got != "[error]" || body["error"] != c.err {
					t.Fatalf("error body %v, want {\"error\": %q}", body, c.err)
				}
				return
			}
			if got, want := bodyKeys(body), keySet(c.keys); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("key set\n got %v\nwant %v", got, want)
			}
			if c.check != nil {
				c.check(t, graphs[c.srv], body)
			}
		})
	}
}
