package main

import (
	"context"
	"fmt"

	"netrel"
	"netrel/internal/core"
	"netrel/internal/estimator"
	"netrel/internal/order"
	"netrel/internal/preprocess"
	"netrel/internal/sampling"
	"netrel/internal/ugraph"
	"netrel/internal/xfloat"
)

// replayed is one query answered layer by layer: the recombined answer
// plus what each layer reported on the way.
type replayed struct {
	Reliability, Lower, Upper, Variance float64
	SamplesUsed, Subproblems            int

	prep                          *preprocess.Result
	subs                          []core.Result
	planNS, constructNS, sampleNS int64
}

// toUgraph rebuilds the library's internal graph from the public edge list.
func toUgraph(g *netrel.Graph) (*ugraph.Graph, error) {
	edges := g.Edges()
	ue := make([]ugraph.Edge, len(edges))
	for i, e := range edges {
		ue[i] = ugraph.Edge{U: e.U, V: e.V, P: e.P}
	}
	return ugraph.FromEdges(g.N(), ue)
}

// replayQuery answers one terminal-set query through the layers' public
// functions, deriving every solver input exactly as the session pipeline
// does: preprocess.RunContext against the shared index, a BFS edge order
// per subproblem, a core.Config with the per-subproblem seed
// SeedStream(seed, sig.Hi, sig.Lo), construction with sampling deferred
// (core.NewSampler), the whole schedule drawn by Sampler.Resume, and the
// results folded in extended range the way the pipeline combines them.
// Each call is a span under one "query" root span for request req.
func replayQuery(ctx context.Context, tr *tracer, req int, g *ugraph.Graph, idx *preprocess.Index,
	terminals []int, samples, width int, seed uint64) (*replayed, error) {
	root := tr.begin("query", 0, req)
	defer tr.end(root)
	ts, err := ugraph.NewTerminals(g, terminals)
	if err != nil {
		return nil, err
	}
	sp := tr.begin("preprocess.plan", root, req)
	t0 := nowNS()
	prep, err := preprocess.RunContext(ctx, g, ts, idx)
	planNS := nowNS() - t0
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("preprocess: %w", err)
	}
	out := &replayed{prep: prep, planNS: planNS}
	if prep.Disconnected {
		return out, nil
	}
	workers := sampling.ClampWorkers(0, 0)
	for _, sub := range prep.Subproblems {
		sp := tr.begin("order", root, req)
		ord := order.Compute(sub.G, order.BFS, sub.Terminals[0])
		tr.end(sp)
		cfg := core.Config{
			MaxWidth:  width,
			Samples:   samples,
			Estimator: estimator.MonteCarlo,
			Seed:      sampling.SeedStream(seed, sub.Sig.Hi, sub.Sig.Lo),
			Order:     ord,
			Workers:   workers,
		}
		sp = tr.begin("core.construct", root, req)
		t0 = nowNS()
		s, err := core.NewSampler(ctx, sub.G, sub.Terminals, cfg)
		out.constructNS += nowNS() - t0
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("core construction: %w", err)
		}
		sp = tr.begin("core.sample", root, req)
		t0 = nowNS()
		_, err = s.Resume(ctx, s.Remaining())
		out.sampleNS += nowNS() - t0
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("core sampling: %w", err)
		}
		res, err := s.Result()
		if err != nil {
			return nil, fmt.Errorf("core result: %w", err)
		}
		out.subs = append(out.subs, res)
	}
	sp = tr.begin("netrel.combine", root, req)
	combine(out, prep.PB)
	tr.end(sp)
	return out, nil
}

// combine folds per-subproblem results into the answer: R = PB · Π R_i
// with bounds and a first-order product variance, in subproblem order.
func combine(out *replayed, pb xfloat.F) {
	estX, lowX, upX := pb, pb, pb
	allExact := true
	rhats := make([]float64, 0, len(out.subs))
	vars := make([]float64, 0, len(out.subs))
	for _, r := range out.subs {
		estX = estX.Mul(r.EstimateX)
		lowX = lowX.Mul(r.LowerX)
		upX = upX.Mul(r.LowerX.Add(r.UnresolvedX).Clamp01())
		allExact = allExact && r.Exact
		out.SamplesUsed += r.SamplesUsed
		rhats = append(rhats, r.Estimate)
		vars = append(vars, r.Variance)
	}
	out.Subproblems = len(out.subs)
	out.Reliability = estX.Clamp01().Float64()
	out.Lower = lowX.Clamp01().Float64()
	out.Upper = upX.Clamp01().Float64()
	if !allExact {
		p := pb.Clamp01().Float64()
		total := 0.0
		for i := range rhats {
			term := vars[i]
			for j := range rhats {
				if j != i {
					term *= rhats[j] * rhats[j]
				}
			}
			total += term
		}
		out.Variance = p * p * total
	}
}

func (rp *replayed) answer() answer {
	return answer{rp.Reliability, rp.Lower, rp.Upper, rp.Variance, rp.SamplesUsed, rp.Subproblems}
}
