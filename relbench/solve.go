package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"strconv"
	"time"

	"netrel"
	"netrel/datasets"
	"netrel/internal/preprocess"
	"netrel/internal/telemetry"
	"netrel/internal/ugraph"
)

// solveSpec is a solve-* workload: one caller answering a seeded list of
// distinct terminal sets, one at a time, through a netrel.Session.
type solveSpec struct {
	Dataset string
	K       int // terminals per query
	Samples int
	Width   int
	Setups  int // set-ups per run; setup_s is their median
	Writes  int // single-edge probability updates after the reads (traced runs)
	// Queries is the size of the query list, answered in full by every
	// run. The list is the same for every workload seed, which orders it:
	// per-query cost spans two orders of magnitude, so a list drawn afresh
	// per seed moves the medians by 15-45% from seed to seed.
	Queries int
	// BigComponent keeps only terminal sets whose decomposition solves a
	// piece of the graph's largest 2-edge-connected component; the others
	// finish in milliseconds and would make the latency bimodal.
	BigComponent bool
}

// graphSeed generates every workload's graph: the graph is the same for
// every workload seed, which varies the queries, so the run-to-run spread
// measures the system rather than the generator.
const graphSeed = 1

func runSolveConstruct(cfg config) (*outcome, error) {
	sp := solveSpec{Dataset: "Tokyo", K: 10, Samples: 10_000, Width: 10_000, Setups: 25, Writes: 1000, Queries: 100, BigComponent: true}
	if cfg.Tiny {
		sp = solveSpec{Dataset: "Am-Rv", K: 4, Samples: 2_000, Width: 64, Setups: 2, Writes: 5, Queries: 3}
	}
	return runSolve(sp, cfg)
}

func runSolveSample(cfg config) (*outcome, error) {
	sp := solveSpec{Dataset: "Hit-d", K: 10, Samples: 10_000, Width: 10_000, Setups: 25, Writes: 1000, Queries: 12}
	if cfg.Tiny {
		sp = solveSpec{Dataset: "Karate", K: 4, Samples: 2_000, Width: 8, Setups: 2, Writes: 5, Queries: 2}
	}
	return runSolve(sp, cfg)
}

// terminalStream yields a seeded sequence of distinct terminal sets that
// pass accept (nil: all).
type terminalStream struct {
	g      *netrel.Graph
	k      int
	seed   uint64
	i      uint64
	seen   map[string]bool
	accept func([]int) bool
}

func newTerminalStream(g *netrel.Graph, k int, seed uint64, accept func([]int) bool) *terminalStream {
	return &terminalStream{g: g, k: k, seed: seed, seen: make(map[string]bool), accept: accept}
}

func (s *terminalStream) next() ([]int, error) {
	for tries := 0; tries < 1000; tries++ {
		s.i++
		ts, err := datasets.RandomTerminals(s.g, s.k, s.seed*1_000_003+s.i)
		if err != nil {
			return nil, err
		}
		key := setKey(ts)
		if !s.seen[key] && (s.accept == nil || s.accept(ts)) {
			s.seen[key] = true
			return ts, nil
		}
	}
	return nil, fmt.Errorf("no new distinct %d-terminal set after 1000 draws", s.k)
}

// setKey canonicalizes a terminal set.
func setKey(ts []int) string {
	c := slices.Clone(ts)
	slices.Sort(c)
	return fmt.Sprint(c)
}

// halfWidth is an answer's error half-width: half its proven interval
// [Lower, Upper], or 3σ when it was sampled and that is tighter. It is 0 for
// an exact answer.
func halfWidth(a answer) float64 {
	h := (a.Upper - a.Lower) / 2
	if a.Variance > 0 {
		h = math.Min(h, 3*math.Sqrt(a.Variance))
	}
	return h
}

func runSolve(sp solveSpec, cfg config) (*outcome, error) {
	var tr *tracer
	if cfg.Trace {
		tr = newTracer()
	}
	out := &outcome{}
	m := &out.Manifest
	m.machine(cfg)
	m.Dataset, m.Samples, m.Width = fmt.Sprintf("%s/small, generator seed %d", sp.Dataset, graphSeed), sp.Samples, sp.Width
	m.TerminalsPerSet = strconv.Itoa(sp.K)
	m.Mix = map[string]float64{"read": 1}

	// Set-up: dataset generation plus the session's eager index build,
	// repeated; the last one is kept.
	var setups []float64
	var g *netrel.Graph
	var sess *netrel.Session
	for i := 0; i < sp.Setups; i++ {
		t0 := time.Now()
		var err error
		g, err = datasets.Generate(sp.Dataset, datasets.Small, graphSeed)
		if err != nil {
			return nil, err
		}
		sess = netrel.NewSession(g)
		setups = append(setups, time.Since(t0).Seconds())
	}
	m.Vertices, m.Edges = g.N(), g.M()

	if err := karateGate(cfg.Seed); err != nil {
		return nil, err
	}

	// The layer-by-layer replay works on its own copy of the graph and
	// index, built through the layers' public functions.
	ls := &layerStats{}
	sid := tr.begin("datasets.generate", 0, -1)
	t0 := time.Now()
	if _, err := datasets.Generate(sp.Dataset, datasets.Small, graphSeed); err != nil {
		return nil, err
	}
	ls.generateMS = ms(time.Since(t0))
	tr.end(sid)
	ug, err := toUgraph(g)
	if err != nil {
		return nil, err
	}
	sid = tr.begin("preprocess.index", 0, -1)
	t0 = time.Now()
	idx := preprocess.BuildIndex(ug)
	ls.indexMS = ms(time.Since(t0))
	tr.end(sid)
	ls.indexBytes = float64(idx.RetainedBytes())

	opts := []netrel.Option{netrel.WithSamples(sp.Samples), netrel.WithMaxWidth(sp.Width), netrel.WithSeed(cfg.Seed)}
	if cfg.Trace {
		opts = append(opts, netrel.WithTrace())
	}
	ctx := context.Background()
	var accept func([]int) bool
	if sp.BigComponent {
		accept = touchesLargest(ctx, ug, idx)
	}
	stream := newTerminalStream(g, sp.K, graphSeed, accept)
	queries := make([][]int, sp.Queries)
	for i := range queries {
		if queries[i], err = stream.next(); err != nil {
			return nil, err
		}
	}
	order := rand.New(rand.NewPCG(cfg.Seed, 0x6f72646572))
	order.Shuffle(len(queries), func(i, j int) { queries[i], queries[j] = queries[j], queries[i] })

	// Untraced runs replay only the first query, before the clock starts;
	// traced runs replay every query.
	var firstReplay *replayed
	if !cfg.Trace {
		if firstReplay, err = replayQuery(ctx, nil, 0, ug, idx, queries[0], sp.Samples, sp.Width, cfg.Seed); err != nil {
			return nil, err
		}
	}

	cache0 := sess.CacheStats()
	assists0 := netrel.DefaultEngine().Stats().Assists
	var lat, widths, subs []float64
	start := time.Now()
	for q, ts := range queries {
		out.Attempted++
		t := time.Now()
		res, err := sess.Reliability(ts, opts...)
		d := time.Since(t)
		if err != nil {
			out.Failed++
			continue
		}
		lat = append(lat, ms(d))
		a := answerOf(res)
		if err := checkBounds(a); err != nil {
			return nil, err
		}
		widths = append(widths, halfWidth(a))
		subs = append(subs, float64(res.Subproblems))
		if q == 0 && firstReplay != nil {
			if err := checkSame("replay of query 0", a, firstReplay.answer()); err != nil {
				return nil, err
			}
		}
		if cfg.Trace {
			if adm, ok := res.Phases.Span(telemetry.PhaseAdmission.String()); ok {
				ls.admissionMS = append(ls.admissionMS, ms(adm.Duration))
			}
			rp, err := replayQuery(ctx, tr, q, ug, idx, ts, sp.Samples, sp.Width, cfg.Seed)
			if err != nil {
				return nil, err
			}
			if err := checkSame(fmt.Sprintf("replay of query %d", q), a, rp.answer()); err != nil {
				return nil, err
			}
			ls.addReplay(rp)
		}
	}
	elapsed := time.Since(start).Seconds()
	cache1 := sess.CacheStats()
	ls.cacheHits = float64(cache1.Hits - cache0.Hits)
	ls.cacheLookups = float64(cache1.Hits + cache1.Misses - cache0.Hits - cache0.Misses)
	ls.assists = float64(netrel.DefaultEngine().Stats().Assists - assists0)
	ls.queries = len(lat)

	// Traced runs then write, on the session that holds the answers, so
	// each write invalidates what its edge covers.
	rng := rand.New(rand.NewPCG(cfg.Seed, 0x77726974))
	for i := 0; cfg.Trace && i < sp.Writes; i++ {
		delta := netrel.GraphDelta{SetProb: []netrel.EdgeProbUpdate{{Edge: rng.IntN(g.M()), P: 0.05 + 0.9*rng.Float64()}}}
		wtr := telemetry.New()
		out.Attempted++
		t := time.Now()
		st, err := sess.MutateContext(telemetry.NewContext(ctx, wtr), delta)
		d := time.Since(t)
		if err != nil {
			out.Failed++
			continue
		}
		ls.writeMS = append(ls.writeMS, ms(d))
		ls.invalidated = append(ls.invalidated, float64(st.InvalidatedEntries))
		snap := wtr.Snapshot()
		ls.invalidateMS = append(ls.invalidateMS, float64(snap.Nanos[telemetry.PhaseInvalidate])/1e6)
		ls.reindexMS = append(ls.reindexMS, float64(snap.Nanos[telemetry.PhaseReindex])/1e6)
	}

	m.DistinctSets = len(stream.seen)
	m.SubproblemsPerQuery = mean(subs)

	if cfg.Trace {
		for _, lt := range layerTimes(tr.spans) {
			switch lt.Layer {
			case "core.construct":
				ls.constructShare = lt.Share
			case "core.sample":
				ls.sampleShare = lt.Share
			}
		}
		out.Lines = ls.lines()
		out.Report = &report{Manifest: *m, Requests: ls.queries, Layers: layerTimes(tr.spans), Spans: tr.spans}
		finishReport(out)
		return out, nil
	}
	t := tailOf(lat)
	out.Lines = []line{
		{"setup_s", median(setups), len(setups), "median of set-ups: generate + NewSession"},
		{"throughput_qps", float64(len(lat)) / elapsed, len(lat), "answered queries per second, one caller"},
		{"latency_p50_ms", median(lat), len(lat), "per query"},
		{"latency_tail_ms", t.Value, t.N, t.Label + " per query"},
		{"error_halfwidth", mean(widths), len(widths), "mean over answers"},
		{"success_rate", float64(out.Attempted-out.Failed) / float64(out.Attempted), out.Attempted, "answered / attempted"},
	}
	return out, nil
}

// touchesLargest reports whether a terminal set's decomposition keeps a
// subproblem cut from the graph's largest 2-edge-connected component.
func touchesLargest(ctx context.Context, g *ugraph.Graph, idx *preprocess.Index) func([]int) bool {
	size := make([]int, idx.NumComps)
	for _, c := range idx.Comp {
		size[c]++
	}
	largest := int32(0)
	for c := range size {
		if size[c] > size[largest] {
			largest = int32(c)
		}
	}
	return func(terminals []int) bool {
		ts, err := ugraph.NewTerminals(g, terminals)
		if err != nil {
			return false
		}
		prep, err := preprocess.RunContext(ctx, g, ts, idx)
		if err != nil {
			return false
		}
		for _, sub := range prep.Subproblems {
			if sub.Comp == largest {
				return true
			}
		}
		return false
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// finishReport copies a traced run's per-layer lines into its report.
func finishReport(out *outcome) {
	units := unitsOf(perLayer)
	out.Report.Metrics = make(map[string]metric, len(out.Lines))
	for _, l := range out.Lines {
		out.Report.Metrics[l.Name] = metric{Value: l.Value, Unit: units[l.Name]}
	}
}
