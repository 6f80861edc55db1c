package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os/exec"
	"sort"
	"sync"
	"syscall"
	"time"

	"netrel"
	"netrel/datasets"
	"netrel/internal/preprocess"
)

// serveSpec is the serve-mixed workload: a generated road network uploaded
// to a netreld daemon started with default flags, and a closed-loop request
// mix from Clients connections.
type serveSpec struct {
	Vertices, Edges int     // road network size
	WorkingSet      int     // distinct terminal sets the reads draw on
	Zipf            float64 // popularity exponent over the working set
	BatchSize       int
	Samples, Width  int
	Setups          int // set-ups per run; setup_s is their median
	Clients         int
	MinReads        int // reads made even when the time is up
}

// serveMix is the request mix: single reads, batches, single-edge
// what-ifs and single-edge probability writes.
var serveMix = []struct {
	Kind  string
	Share float64
}{{"read", 0.70}, {"batch", 0.10}, {"whatif", 0.18}, {"write", 0.02}}

const graphName = "road"

// layerOfPhase names the layer a daemon trace phase belongs to.
var layerOfPhase = map[string]string{
	"admission":  "engine.admission",
	"condition":  "preprocess.condition",
	"index":      "preprocess.index",
	"plan":       "preprocess.plan",
	"construct":  "core.construct",
	"sample":     "core.sample",
	"combine":    "netrel.combine",
	"invalidate": "batch.invalidate",
	"reindex":    "preprocess.reindex",
}

func runServe(cfg config) (*outcome, error) {
	sp := serveSpec{Vertices: 400, Edges: 440, WorkingSet: 48, Zipf: 1.1, BatchSize: 8,
		Samples: 10_000, Width: 10_000, Setups: 9, Clients: 1, MinReads: 1000}
	if cfg.Tiny {
		sp = serveSpec{Vertices: 64, Edges: 76, WorkingSet: 6, Zipf: 1.1, BatchSize: 3,
			Samples: 2_000, Width: 64, Setups: 1, Clients: 1, MinReads: 20}
	}
	if cfg.Netreld == "" {
		return nil, errors.New("serve-mixed needs the netreld binary (-netreld); run.sh builds it")
	}
	out := &outcome{}
	m := &out.Manifest
	m.machine(cfg)
	m.Dataset = fmt.Sprintf("RoadNetwork(%d, %d), generator seed %d", sp.Vertices, sp.Edges, graphSeed)
	m.Samples, m.Width = sp.Samples, sp.Width
	m.TerminalsPerSet = "2-3"
	m.Mix = make(map[string]float64)
	for _, k := range serveMix {
		m.Mix[k.Kind] = k.Share
	}

	ls := &layerStats{}
	t0 := time.Now()
	gen, err := datasets.RoadNetwork(sp.Vertices, sp.Edges, graphSeed)
	if err != nil {
		return nil, err
	}
	ls.generateMS = ms(time.Since(t0))
	var tsv bytes.Buffer
	if err := gen.Write(&tsv); err != nil {
		return nil, err
	}
	// The in-process reference reads the uploaded bytes, so both sides
	// answer on the same graph.
	g, err := netrel.ReadGraph(bytes.NewReader(tsv.Bytes()))
	if err != nil {
		return nil, err
	}
	m.Vertices, m.Edges = g.N(), g.M()
	w := &serveWork{sp: sp, m: g.M(), seed: cfg.Seed}
	if w.sets, err = localSets(g, sp.WorkingSet, graphSeed); err != nil {
		return nil, err
	}
	w.zipf = zipfCDF(len(w.sets), sp.Zipf)
	m.DistinctSets = len(w.sets)

	if err := karateGate(cfg.Seed); err != nil {
		return nil, err
	}
	ref := netrel.NewSession(g)
	want := make([]answer, len(w.sets))
	var subs []float64
	for i, ts := range w.sets {
		r, err := ref.Reliability(ts, netrel.WithSamples(sp.Samples), netrel.WithMaxWidth(sp.Width), netrel.WithSeed(cfg.Seed))
		if err != nil {
			return nil, fmt.Errorf("in-process reference: %w", err)
		}
		want[i] = answerOf(r)
		subs = append(subs, float64(r.Subproblems))
	}
	m.SubproblemsPerQuery = mean(subs)

	// Set-up, repeated: start the daemon, register the graph from TSV and
	// warm its result cache with one pass over the working set. The last
	// daemon serves the measurement.
	var d *daemon
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	var setups, widths []float64
	for i := 0; i < sp.Setups; i++ {
		if d != nil {
			d.stop()
			d = nil
		}
		t0 := time.Now()
		if d, err = startDaemon(cfg.Netreld); err != nil {
			return nil, err
		}
		c := newClient(d.base)
		reg := map[string]string{"name": graphName, "tsv": tsv.String()}
		if _, _, err := c.call(http.MethodPost, "/v1/graphs", reg, nil); err != nil {
			return nil, err
		}
		got := make([]answer, len(w.sets))
		for j, ts := range w.sets {
			var rep replyJSON
			if _, _, err := c.call(http.MethodPost, "/v1/reliability", w.query(ts, false), &rep); err != nil {
				return nil, err
			}
			if rep.Result == nil {
				return nil, errors.New("reliability reply without a result")
			}
			got[j] = rep.Result.answer()
		}
		setups = append(setups, time.Since(t0).Seconds())
		c.close()
		if err := checkWarm(w.sets, want, got); err != nil {
			return nil, err
		}
		widths = widths[:0]
		for _, a := range got {
			widths = append(widths, halfWidth(a))
		}
	}

	if cfg.Trace {
		// Replay the working set layer by layer for the structural counters
		// the wire does not carry; per-request timings come from the daemon.
		ug, err := toUgraph(g)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		idx := preprocess.BuildIndex(ug)
		ls.indexMS = ms(time.Since(t0))
		ls.indexBytes = float64(idx.RetainedBytes())
		for i, ts := range w.sets {
			rp, err := replayQuery(context.Background(), nil, i, ug, idx, ts, sp.Samples, sp.Width, cfg.Seed)
			if err != nil {
				return nil, err
			}
			if err := checkSame(fmt.Sprintf("replay of %v", ts), want[i], rp.answer()); err != nil {
				return nil, err
			}
			ls.addReplay(rp)
		}
		ls.planMS, ls.constructMS, ls.sampleMS = nil, nil, nil
	}

	ctl := newClient(d.base)
	defer ctl.close()
	var before, after statsJSON
	if _, _, err := ctl.call(http.MethodGet, "/v1/stats", nil, &before); err != nil {
		return nil, err
	}
	logs := make([]*clientLog, sp.Clients)
	deadline := time.Now().Add(time.Duration(cfg.Seconds * float64(time.Second)))
	start := time.Now()
	var wg sync.WaitGroup
	for i := range logs {
		cl := &clientLog{start: start}
		if cfg.Trace {
			cl.tr = &tracer{t0: start}
		}
		logs[i] = cl
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := newClient(d.base)
			defer c.close()
			r := rand.New(rand.NewPCG(cfg.Seed, 0x636c69656e74+uint64(id)))
			cl.run(c, r, w, deadline, cfg.Trace, id)
		}(i)
	}
	wg.Wait()
	if _, _, err := ctl.call(http.MethodGet, "/v1/stats", nil, &after); err != nil {
		return nil, err
	}

	var reads, writes, singles, singlesTraced, ends []float64
	var spans []span
	done, serverSum := 0, 0.0
	for _, cl := range logs {
		if cl.err != nil {
			return nil, cl.err
		}
		out.Attempted += cl.attempted
		out.Failed += cl.failed
		done += cl.done
		reads = append(reads, cl.reads...)
		ends = append(ends, cl.ends...)
		writes = append(writes, cl.writes...)
		singles = append(singles, cl.singles...)
		singlesTraced = append(singlesTraced, cl.singlesTraced...)
		serverSum += cl.serverSum
		ls.planMS = append(ls.planMS, cl.plan...)
		ls.constructMS = append(ls.constructMS, cl.construct...)
		ls.sampleMS = append(ls.sampleMS, cl.sample...)
		ls.constructShare += cl.constructSum
		ls.sampleShare += cl.sampleSum
		ls.cacheHits += cl.hits
		ls.cacheLookups += cl.lookups
		ls.dedupSubs += cl.dedup
		ls.batchSubs += cl.batchSubs
		ls.invalidated = append(ls.invalidated, cl.invalidated...)
		ls.admissionMS = append(ls.admissionMS, cl.admission...)
		ls.httpOverheadMS = append(ls.httpOverheadMS, cl.httpOverhead...)
		ls.responseBytes = append(ls.responseBytes, cl.bytes...)
		if cl.tr != nil {
			spans = appendSpans(spans, cl.tr.spans)
		}
	}
	if len(reads) == 0 {
		return nil, errors.New("no read completed")
	}

	if cfg.Trace {
		ls.queries = done
		ls.constructShare = ratio(ls.constructShare, serverSum)
		ls.sampleShare = ratio(ls.sampleShare, serverSum)
		ls.assists = after.Engine.PoolAssists - before.Engine.PoolAssists
		phase := func(p string) []float64 {
			if len(writes) == 0 {
				return nil
			}
			d := after.Graphs[graphName].PhaseSeconds[p] - before.Graphs[graphName].PhaseSeconds[p]
			return []float64{d * 1e3 / float64(len(writes))}
		}
		ls.invalidateMS, ls.reindexMS = phase("invalidate"), phase("reindex")
		ls.writeMS = writes
		if len(singles) > 0 && len(singlesTraced) > 0 {
			ls.traceOverhead = median(singlesTraced)/median(singles) - 1
		}
		out.Lines = ls.lines()
		out.Report = &report{Requests: done, Layers: layerTimes(spans), Spans: spans}
		finishReport(out)
		return out, nil
	}
	t := tailOf(reads)
	out.Lines = []line{
		{"setup_s", median(setups), len(setups), "median of set-ups: start netreld, register TSV, warm pass"},
		{"throughput_qps", windowRate(ends, cfg.Seconds), done, fmt.Sprintf("completed requests per second, median over 1 s windows, %d closed-loop connection(s)", sp.Clients)},
		{"latency_p50_ms", median(reads), len(reads), "reads: reliability, batch, whatif"},
		{"latency_tail_ms", t.Value, t.N, t.Label + " of reads"},
		{"error_halfwidth", mean(widths), len(widths), "mean over the warm pass's answers"},
		{"success_rate", float64(done) / float64(out.Attempted), out.Attempted, "completed / attempted"},
	}
	return out, nil
}

// checkWarm requires every warm-pass HTTP answer to respect its bounds and
// to equal the in-process session's answer to the same query, bit for bit.
func checkWarm(sets [][]int, want, got []answer) error {
	for i := range sets {
		if err := checkBounds(got[i]); err != nil {
			return err
		}
		if err := checkSame(fmt.Sprintf("netreld answer for %v", sets[i]), want[i], got[i]); err != nil {
			return err
		}
	}
	return nil
}

// localSets draws n distinct terminal sets of 2 or 3 vertices, each from
// the 12-vertex breadth-first ball around a random centre, so the
// terminals share a few components and the answers are not vanishingly
// small.
func localSets(g *netrel.Graph, n int, seed uint64) ([][]int, error) {
	adj := make([][]int, g.N())
	for _, e := range g.Edges() {
		adj[e.U] = append(adj[e.U], e.V)
		adj[e.V] = append(adj[e.V], e.U)
	}
	r := rand.New(rand.NewPCG(seed, 0x6c6f63616c))
	seen := make(map[string]bool)
	var out [][]int
	for tries := 0; len(out) < n; tries++ {
		if tries > 100*n {
			return nil, fmt.Errorf("found only %d distinct local terminal sets", len(out))
		}
		c := r.IntN(g.N())
		ball := []int{c}
		in := map[int]bool{c: true}
		for i := 0; i < len(ball) && len(ball) < 12; i++ {
			for _, v := range adj[ball[i]] {
				if !in[v] && len(ball) < 12 {
					in[v] = true
					ball = append(ball, v)
				}
			}
		}
		k := 2 + len(out)%2
		if len(ball) < k {
			continue
		}
		r.Shuffle(len(ball), func(i, j int) { ball[i], ball[j] = ball[j], ball[i] })
		ts := append([]int(nil), ball[:k]...)
		if key := setKey(ts); !seen[key] {
			seen[key] = true
			out = append(out, ts)
		}
	}
	return out, nil
}

// zipfCDF is the cumulative popularity of n ranks under exponent s.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	total := 0.0
	for i := range cdf {
		total += 1 / math.Pow(float64(i+1), s)
		cdf[i] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	return cdf
}

// serveWork is what every client draws its requests from.
type serveWork struct {
	sp   serveSpec
	sets [][]int
	zipf []float64
	m    int // edges
	seed uint64
}

func (w *serveWork) pickSet(r *rand.Rand) []int {
	i := sort.SearchFloat64s(w.zipf, r.Float64())
	return w.sets[min(i, len(w.sets)-1)]
}

func pickKind(r *rand.Rand) string {
	u := r.Float64()
	for _, k := range serveMix {
		if u < k.Share {
			return k.Kind
		}
		u -= k.Share
	}
	return serveMix[len(serveMix)-1].Kind
}

// Request bodies.
type queryBody struct {
	Graph     string `json:"graph"`
	Terminals []int  `json:"terminals,omitempty"`
	Samples   int    `json:"samples"`
	Width     int    `json:"width"`
	Seed      uint64 `json:"seed"`
	Trace     bool   `json:"trace,omitempty"`
}

type termsJSON struct {
	Terminals []int `json:"terminals"`
}

type batchBody struct {
	queryBody
	Queries []termsJSON `json:"queries"`
}

type setProbJSON struct {
	Edge int     `json:"edge"`
	P    float64 `json:"p"`
}

type deltaBody struct {
	SetProb []setProbJSON `json:"set_prob"`
}

type whatifBody struct {
	queryBody
	Delta deltaBody `json:"delta"`
}

func (w *serveWork) query(ts []int, trace bool) queryBody {
	return queryBody{Graph: graphName, Terminals: ts, Samples: w.sp.Samples, Width: w.sp.Width, Seed: w.seed, Trace: trace}
}

func (w *serveWork) edgeUpdate(r *rand.Rand) deltaBody {
	return deltaBody{SetProb: []setProbJSON{{Edge: r.IntN(w.m), P: 0.05 + 0.9*r.Float64()}}}
}

// Reply bodies: the fields the benchmark reads.
type phasesJSON struct {
	Spans []struct {
		Phase      string  `json:"phase"`
		DurationMS float64 `json:"duration_ms"`
	} `json:"spans"`
	CacheHits          int64 `json:"cache_hits"`
	CacheMisses        int64 `json:"cache_misses"`
	Subproblems        int64 `json:"subproblems"`
	SubproblemsDeduped int64 `json:"subproblems_deduped"`
}

func (p *phasesJSON) ms(phase string) float64 {
	for _, s := range p.Spans {
		if s.Phase == phase {
			return s.DurationMS
		}
	}
	return 0
}

type resultJSON struct {
	Reliability float64     `json:"reliability"`
	Lower       float64     `json:"lower"`
	Upper       float64     `json:"upper"`
	Variance    float64     `json:"variance"`
	SamplesUsed int         `json:"samples_used"`
	Subproblems int         `json:"subproblems"`
	DurationMS  float64     `json:"duration_ms"`
	Phases      *phasesJSON `json:"phases"`
}

func (r *resultJSON) answer() answer {
	return answer{r.Reliability, r.Lower, r.Upper, r.Variance, r.SamplesUsed, r.Subproblems}
}

type replyJSON struct {
	Result      *resultJSON  `json:"result"`
	Results     []resultJSON `json:"results"`
	DurationMS  float64      `json:"duration_ms"` // batch and write replies
	Invalidated int          `json:"invalidated"` // write replies
}

type statsJSON struct {
	Engine struct {
		PoolAssists float64 `json:"pool_assists"`
	} `json:"engine"`
	Graphs map[string]struct {
		PhaseSeconds map[string]float64 `json:"phase_seconds"`
	} `json:"graphs"`
}

// clientLog is what one closed-loop connection measured. Only its own
// goroutine writes it; the run reads it after the goroutine has ended.
type clientLog struct {
	start                   time.Time // start of the measurement
	tr                      *tracer
	attempted, failed, done int
	err                     error // a failed correctness check
	reads, writes           []float64
	ends                    []float64 // completion times, seconds from start
	singles, singlesTraced  []float64 // single-read round trips, untraced and traced
	httpOverhead, bytes     []float64
	plan, construct, sample []float64 // per traced single read
	admission               []float64
	serverSum               float64 // server-side ms of traced reads
	constructSum, sampleSum float64
	hits, lookups           float64
	dedup, batchSubs        float64
	invalidated             []float64
}

// run sends requests one after another until the deadline, and past it
// until its share of the minimum read count has been sent, unless a request
// has failed: then it stops at the deadline, and the failures show in the
// success rate. In a traced run every second request asks for the daemon's
// phase breakdown.
func (cl *clientLog) run(c *client, r *rand.Rand, w *serveWork, deadline time.Time, trace bool, id int) {
	minReads := w.sp.MinReads / w.sp.Clients
	readsSent := 0
	for seq := 0; time.Now().Before(deadline) || (readsSent < minReads && cl.failed == 0); seq++ {
		traced := trace && seq%2 == 1
		req := id<<32 | seq
		kind := pickKind(r)
		method, path := http.MethodPost, ""
		var body any
		switch kind {
		case "read":
			path, body = "/v1/reliability", w.query(w.pickSet(r), traced)
		case "batch":
			b := batchBody{queryBody: w.query(nil, traced)}
			for i := 0; i < w.sp.BatchSize; i++ {
				b.Queries = append(b.Queries, termsJSON{w.pickSet(r)})
			}
			path, body = "/v1/batch", b
		case "whatif":
			path, body = "/v1/whatif", whatifBody{queryBody: w.query(w.pickSet(r), traced), Delta: w.edgeUpdate(r)}
		case "write":
			method, path, body = http.MethodPatch, "/v1/graphs/"+graphName+"/edges", w.edgeUpdate(r)
		}
		cl.attempted++
		if kind != "write" {
			readsSent++
		}
		t0 := time.Now()
		var rep replyJSON
		rtt, n, err := c.call(method, path, body, &rep)
		if err != nil {
			cl.failed++
			continue
		}
		cl.done++
		cl.ends = append(cl.ends, time.Since(cl.start).Seconds())
		if kind == "write" {
			cl.writes = append(cl.writes, ms(rtt))
			cl.invalidated = append(cl.invalidated, float64(rep.Invalidated))
			root := cl.tr.add("netreld.http", 0, req, t0, rtt)
			cl.tr.add("netrel.session", root, req, t0, time.Duration(rep.DurationMS*1e6))
			continue
		}
		results, serverMS := rep.Results, rep.DurationMS
		if rep.Result != nil {
			results, serverMS = []resultJSON{*rep.Result}, rep.Result.DurationMS
		}
		if len(results) == 0 {
			cl.err = gateFail("%s reply without results", path)
			return
		}
		for i := range results {
			if err := checkBounds(results[i].answer()); err != nil {
				cl.err = err
				return
			}
		}
		cl.reads = append(cl.reads, ms(rtt))
		cl.httpOverhead = append(cl.httpOverhead, ms(rtt)-serverMS)
		cl.bytes = append(cl.bytes, float64(n))
		if kind == "read" {
			if traced {
				cl.singlesTraced = append(cl.singlesTraced, ms(rtt))
			} else {
				cl.singles = append(cl.singles, ms(rtt))
			}
		}
		if ph := results[0].Phases; traced && ph != nil {
			cl.addTraced(kind, ph, serverMS, req, t0, rtt)
		}
	}
}

// addTraced records a traced read's phases as spans under its round trip
// and folds them into the per-layer sums. Admission and the index wait
// precede the library's own timing, so they hang off the round trip.
func (cl *clientLog) addTraced(kind string, ph *phasesJSON, serverMS float64, req int, t0 time.Time, rtt time.Duration) {
	root := cl.tr.add("netreld.http", 0, req, t0, rtt)
	sess := cl.tr.add("netrel.session", root, req, t0, time.Duration(serverMS*1e6))
	for _, s := range ph.Spans {
		parent := sess
		if s.Phase == "admission" || s.Phase == "index" {
			parent = root
		}
		layer := layerOfPhase[s.Phase]
		if layer == "" {
			layer = s.Phase
		}
		cl.tr.add(layer, parent, req, t0, time.Duration(s.DurationMS*1e6))
	}
	cl.serverSum += serverMS
	cl.constructSum += ph.ms("construct")
	cl.sampleSum += ph.ms("sample")
	cl.admission = append(cl.admission, ph.ms("admission"))
	cl.hits += float64(ph.CacheHits)
	cl.lookups += float64(ph.CacheHits + ph.CacheMisses)
	switch kind {
	case "batch":
		cl.dedup += float64(ph.SubproblemsDeduped)
		cl.batchSubs += float64(ph.Subproblems)
	case "read":
		cl.plan = append(cl.plan, ph.ms("plan"))
		cl.construct = append(cl.construct, ph.ms("construct"))
		cl.sample = append(cl.sample, ph.ms("sample"))
	}
}

// appendSpans appends one tracer's spans to dst, renumbering their ids.
func appendSpans(dst, src []span) []span {
	off := len(dst)
	for _, s := range src {
		s.ID += off
		if s.Parent != 0 {
			s.Parent += off
		}
		dst = append(dst, s)
	}
	return dst
}

// client is one HTTP connection to the daemon.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// call sends one request with a JSON body (nil: none) and decodes the JSON
// reply into out (nil: discarded). It returns the round trip, which ends
// when the last reply byte has arrived, and the reply size. A non-2xx
// status is an error.
func (c *client) call(method, path string, in, out any) (time.Duration, int, error) {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return 0, 0, err
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, c.base+path, body)
	if err != nil {
		return 0, 0, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, 0, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rtt := time.Since(t0)
	if err != nil {
		return rtt, len(raw), err
	}
	if resp.StatusCode/100 != 2 {
		return rtt, len(raw), fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(raw))
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return rtt, len(raw), fmt.Errorf("%s %s: decoding reply: %w", method, path, err)
		}
	}
	return rtt, len(raw), nil
}

// daemon is a netreld child process.
type daemon struct {
	cmd  *exec.Cmd
	base string
	done chan struct{} // closed once the process has exited
	err  error         // its exit status, valid after done
}

// startDaemon starts netreld with default flags on a free loopback port
// and waits until it reports healthy.
func startDaemon(bin string) (*daemon, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	cmd := exec.Command(bin, "-addr", addr)
	// The daemon must not outlive the benchmark, even if the benchmark dies.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting netreld: %w", err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, done: make(chan struct{})}
	go func() {
		d.err = cmd.Wait()
		close(d.done)
	}()
	c := newClient(d.base)
	defer c.close()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, _, err := c.call(http.MethodGet, "/healthz", nil, nil); err == nil {
			return d, nil
		}
		select {
		case <-d.done:
			return nil, fmt.Errorf("netreld exited during start-up: %v", d.err)
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("netreld not healthy after 30s")
		}
	}
}

// stop asks the daemon to drain and exit, kills it if it has not exited
// within ten seconds, and returns once it has exited.
func (d *daemon) stop() {
	// A failed signal means the process has already exited; done says so.
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
}
