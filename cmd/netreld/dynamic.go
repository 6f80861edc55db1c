// netreld's dynamic-graph endpoints: persistent mutation
// (PATCH /v1/graphs/{name}/edges), QoS hot-reload (PATCH /v1/graphs/{name})
// and ephemeral what-if queries (POST /v1/whatif).
package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"time"

	"netrel"
	"netrel/internal/telemetry"
)

// probUpdateJSON, newEdgeJSON and deltaJSON are the wire shape of a
// netrel.GraphDelta: probability updates on existing edges, removals by
// edge index, and added edges. Removal and set_prob indices refer to the
// pre-delta edge order; after a mutation, surviving edges keep their
// relative order and additions append.
type probUpdateJSON struct {
	Edge int     `json:"edge"`
	P    float64 `json:"p"`
}

type newEdgeJSON struct {
	U int     `json:"u"`
	V int     `json:"v"`
	P float64 `json:"p"`
}

type deltaJSON struct {
	SetProb []probUpdateJSON `json:"set_prob,omitempty"`
	Remove  []int            `json:"remove,omitempty"`
	Add     []newEdgeJSON    `json:"add,omitempty"`
}

func (d deltaJSON) toDelta() netrel.GraphDelta {
	out := netrel.GraphDelta{Remove: d.Remove}
	for _, u := range d.SetProb {
		out.SetProb = append(out.SetProb, netrel.EdgeProbUpdate{Edge: u.Edge, P: u.P})
	}
	for _, e := range d.Add {
		out.Add = append(out.Add, netrel.Edge{U: e.U, V: e.V, P: e.P})
	}
	return out
}

// mutateRequest is the body of PATCH /v1/graphs/{name}/edges: the delta
// fields inline. At least one field must be non-empty.
type mutateRequest deltaJSON

// handleMutateGraph applies a persistent delta to a registered graph in
// place: same name, same session, same registration generation — only the
// graph version advances. The 2ECC index is kept (probability-only
// deltas) or rebuilt (topology deltas), and the result cache keeps every
// entry whose component the delta did not touch, so post-mutation queries
// re-solve only the covered subproblems.
func (s *server) handleMutateGraph(w http.ResponseWriter, r *http.Request) {
	var req mutateRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	delta := deltaJSON(req).toDelta()
	if delta.Empty() {
		writeError(w, http.StatusBadRequest,
			errors.New(`empty delta: give "set_prob", "remove" or "add"`))
		return
	}
	h := s.graph(w, r.PathValue("name"))
	if h == nil {
		return
	}
	s.serveQuery(w, r, h, "mutate", nil, false, func(ctx context.Context, q *queryRun) (any, error) {
		stats, err := s.reg.MutateContext(ctx, h.name, delta)
		if err != nil {
			return nil, err
		}
		elapsed := time.Since(q.start)
		return map[string]any{
			"graph":            h.name,
			"version":          stats.Version,
			"topology_changed": stats.TopologyChanged,
			"index_updated":    stats.IndexUpdated,
			"invalidated":      stats.InvalidatedEntries,
			"kept":             stats.KeptEntries,
			"duration_ms":      float64(elapsed) / float64(time.Millisecond),
		}, nil
	})
}

// patchGraphRequest is the body of PATCH /v1/graphs/{name}: QoS settings
// updated in place, without re-registration. Pointer fields distinguish
// "leave unchanged" from an explicit value; quota_rate 0 removes the
// graph's quota, and quota_burst without quota_rate is rejected (the
// burst is meaningless without a rate).
type patchGraphRequest struct {
	Weight     *int     `json:"weight,omitempty"`
	QuotaRate  *float64 `json:"quota_rate,omitempty"`
	QuotaBurst *float64 `json:"quota_burst,omitempty"`
}

// handlePatchGraph hot-reloads a graph's scheduling weight and cost quota.
// The new settings apply to the next admission; in-flight and queued
// requests keep the terms they were admitted under.
func (s *server) handlePatchGraph(w http.ResponseWriter, r *http.Request) {
	var req patchGraphRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if req.Weight == nil && req.QuotaRate == nil && req.QuotaBurst == nil {
		writeError(w, http.StatusBadRequest,
			errors.New(`nothing to update: give "weight", "quota_rate" or "quota_burst"`))
		return
	}
	if req.Weight != nil && *req.Weight < 1 {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("weight must be at least 1, got %d", *req.Weight))
		return
	}
	if req.QuotaBurst != nil && req.QuotaRate == nil {
		writeError(w, http.StatusBadRequest,
			errors.New(`"quota_burst" needs "quota_rate" in the same request`))
		return
	}
	for field, v := range map[string]*float64{"quota_rate": req.QuotaRate, "quota_burst": req.QuotaBurst} {
		if v != nil && (*v < 0 || math.IsNaN(*v) || math.IsInf(*v, 0)) {
			writeError(w, http.StatusBadRequest,
				fmt.Errorf("%s must be finite and non-negative, got %v", field, *v))
			return
		}
	}
	h := s.graph(w, r.PathValue("name"))
	if h == nil {
		return
	}
	if req.Weight != nil {
		s.eng.SetTenantWeight(h.name, *req.Weight)
	}
	if req.QuotaRate != nil {
		burst := 0.0
		if req.QuotaBurst != nil {
			burst = *req.QuotaBurst
		}
		// rate 0 removes the quota; burst 0 selects one second of refill.
		s.eng.SetTenantQuota(h.name, *req.QuotaRate, burst)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"graph": h.name,
		"qos":   toQoSResponse(s.eng.TenantStats(h.name)),
	})
}

// whatifRequest is the body of POST /v1/whatif: a single query (the
// queryRequest shape minus exact and anytime) plus the ephemeral "delta" it
// is answered under. The session is untouched; the result is bit-identical
// to mutating the graph for real and querying, while every subproblem the
// delta does not cover is answered from the graph's shared result cache.
type whatifRequest struct {
	Graph string    `json:"graph,omitempty"`
	Delta deltaJSON `json:"delta"`
	specJSON
	samplingJSON
}

func (s *server) handleWhatIf(w http.ResponseWriter, r *http.Request) {
	var req whatifRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	h := s.graph(w, req.Graph)
	if h == nil {
		return
	}
	// Terminals are validated against the base graph (the vertex set never
	// changes under a delta); evidence indices, like the delta itself, are
	// validated by the library, whose errors map to 400s.
	spec, err := req.spec(h.sess.Graph().N(), uncheckedEdges)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	opts, err := s.options(req.samplingJSON, nil)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	delta := req.Delta.toDelta()
	s.serveQuery(w, r, h, "whatif", opts, false, func(ctx context.Context, q *queryRun) (any, error) {
		res, err := h.sess.WhatIfContext(ctx, delta, spec, q.opts...)
		if err != nil {
			return nil, err
		}
		h.c.whatifs.Add(1)
		h.c.countMode(spec.Mode, 1)
		// The request's own hit/miss counts show the cover reuse a what-if is
		// for: on a warm cache, subproblems outside the delta's components hit.
		annots := q.tr.Snapshot().Annots
		return map[string]any{
			"graph":            h.name,
			"mode":             spec.Mode.String(),
			"topology_changed": delta.TopologyChanged(),
			"result":           toResponse(res),
			"cache_hits":       annots[telemetry.AnnotCacheHits],
			"cache_misses":     annots[telemetry.AnnotCacheMisses],
		}, nil
	})
}
