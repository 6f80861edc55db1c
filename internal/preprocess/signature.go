package preprocess

import (
	"encoding/binary"
	"hash/fnv"
	"math"

	"netrel/internal/ugraph"
)

// Signature canonically identifies a decomposed subproblem: the 128-bit
// FNV-1a hash of its vertex-relabeled edge list (endpoints and probability
// bits, in edge order) together with its terminal set. Subgraphs built by
// the decomposition are already relabeled canonically — local vertex ids
// follow ascending original ids and edges follow original edge order — so
// two queries that decompose onto the same 2ECC with the same effective
// terminal set produce byte-identical inputs and therefore equal
// signatures.
//
// The edge list is hashed in order, not sorted: the S2BDD's edge ordering
// (and hence its sampled estimate) depends on the edge list as given, so
// equality of signatures must guarantee equality of the exact solver input,
// not merely of the underlying graph.
//
// Signatures are stable across processes (no per-run hash seeding), which
// lets callers derive per-subproblem RNG seeds from them: a subproblem's
// random stream then depends only on what is being solved, never on which
// query — or which position within a query — asked for it.
type Signature struct {
	Hi, Lo uint64
}

// hashSig is the shared signature framing: it feeds every uint64 the
// write callback emits into FNV-128a (little-endian) and folds the sum
// into a Signature. Both signature domains derive through it, so the hash
// and its framing can only ever evolve in lockstep.
func hashSig(write func(put func(uint64))) Signature {
	h := fnv.New128a()
	var buf [8]byte
	write(func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	})
	var sum [16]byte
	s := h.Sum(sum[:0])
	return Signature{
		Hi: binary.BigEndian.Uint64(s[:8]),
		Lo: binary.BigEndian.Uint64(s[8:]),
	}
}

// Sign computes the canonical signature of (g, ts).
func Sign(g *ugraph.Graph, ts ugraph.Terminals) Signature {
	return hashSig(func(put func(uint64)) {
		put(uint64(g.N()))
		put(uint64(g.M()))
		for _, e := range g.Edges() {
			put(uint64(e.U))
			put(uint64(e.V))
			put(math.Float64bits(e.P))
		}
		put(uint64(len(ts)))
		for _, t := range ts {
			put(uint64(t))
		}
	})
}

// SignSpec canonically identifies a (mode, terminal set, evidence) planning
// unit for plan-level deduplication in mixed-mode batches. Two queries with
// equal spec signatures run the same preprocessing — same mode, same
// canonicalized terminals, same normalized evidence, same graph (shared by
// the whole batch) — and can therefore share one plan. The hash is
// domain-separated from Sign, and the mode participates in it, so specs of
// different modes never collide into one plan even when their terminal
// sets coincide (their subproblems still dedup at the solve level whenever
// conditioning leaves them byte-identical).
func SignSpec(mode uint64, ts ugraph.Terminals, obs []Observation) Signature {
	return hashSig(func(put func(uint64)) {
		put(0x73706563_7369676e) // "specsign" domain tag
		put(mode)
		put(uint64(len(ts)))
		for _, t := range ts {
			put(uint64(t))
		}
		put(uint64(len(obs)))
		for _, o := range obs {
			put(uint64(o.Edge))
			if o.Up {
				put(1)
			} else {
				put(0)
			}
		}
	})
}

// Less orders signatures lexicographically (a deterministic tie-break for
// schedulers).
func (s Signature) Less(o Signature) bool {
	if s.Hi != o.Hi {
		return s.Hi < o.Hi
	}
	return s.Lo < o.Lo
}
