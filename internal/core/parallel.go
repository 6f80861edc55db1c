// Parallel execution of the S2BDD stratified-sampling phase.
//
// Stratum completion is embarrassingly parallel: every draw is an
// independent possible-graph completion of one deleted (or flushed) node.
// The draws of a stratum are split into fixed-size chunks whose boundaries
// depend only on the draw count; each chunk derives its own PCG stream from
// (Seed, layer, stratum, chunk) and chunk results fold in chunk order. The
// worker count therefore affects only the execution schedule, never the
// arithmetic, making results bit-identical for every worker count.
//
// A draw reads the coin of remaining edge i from variate i of its chunk's
// stream, computed directly from the stream state after the draw's pick
// through the run's table of LCG step maps. A Monte Carlo draw is a search that computes only
// the variates of the coins it reaches, yet every draw at layer l still
// consumes exactly 1 + (M − l) variates: the pick, then one per remaining
// edge, the draw ending with its stream set to the state after the last.
// A part-drawn chunk is therefore resumed by re-deriving its stream and
// jumping it over the draws already made.
package core

import (
	"context"

	"netrel/internal/sampling"
	"netrel/internal/xfloat"
)

// stratumChunk is the number of completion draws per deterministic work
// unit. Small enough to load-balance a 10⁴-draw stratum across many cores,
// large enough that per-chunk setup (an RNG and a frontier switch) is noise.
const stratumChunk = 128

// chunkStream is the per-chunk RNG stream constant (distinct from the
// driver stream in NewSampler).
const chunkStream = 0x5851f42d4c957f2d

// numChunks is the single source of the chunk-boundary rule: a stratum's
// draws split into exactly this many chunks, the last one possibly short.
func numChunks(draws int) int {
	return (draws + stratumChunk - 1) / stratumChunk
}

// completerSlot returns the worker-slot completer, creating it (and, for
// the first, the run's shared edge stream and step table) on first use.
// Only the driver goroutine grows the slice (worker closures are built
// before the pool starts), so no locking is needed.
func (r *run) completerSlot(slot int) *completer {
	if r.edges == nil {
		r.edges = planStream(r.g, r.ord)
	}
	for len(r.compls) <= slot {
		r.compls = append(r.compls, newCompleter(r.g.N(), r.maxFront, r.edges))
	}
	return r.compls[slot]
}

// chunkRNG builds the deterministic stream for one (layer, stratum, chunk)
// coordinate.
func (r *run) chunkRNG(layer, stratum, chunk int) pcg {
	return pcg{sampling.SeedStream(r.cfg.Seed, uint64(layer), uint64(stratum), uint64(chunk)), chunkStream}
}

// forChunkRange runs do(completer, chunk) for every chunk in the global
// window [c0, c1) of stratum st, across up to r.workers slots — executed
// by the shared pool when cfg.Exec is set, otherwise by per-call
// goroutines. Each slot owns one completer (union-find arena + frontier
// copy), switched to the stratum's layer before its first chunk. Chunk
// indices, and therefore RNG streams, are global: executing a stratum's
// chunks across several windows folds exactly like executing them in one,
// and the execution venue never changes the fold.
// Cancellation stops the window at a chunk boundary.
func (r *run) forChunkRange(ctx context.Context, st *stratumState, c0, c1 int, do func(c *completer, chunk int)) error {
	slot := 0
	return sampling.ForEachChunkRangeCtx(ctx, r.cfg.Exec, c0, c1-c0, r.workers, func() func(int) {
		comp := r.completerSlot(slot)
		slot++
		comp.setLayer(st.layer, st.front, st.unseen)
		return func(chunk int) { do(comp, chunk) }
	})
}

// mixNodeFP mixes the picked node's identity into a completion fingerprint
// so HT deduplication distinguishes identical completions of distinct nodes.
func mixNodeFP(fp uint64, idx int) uint64 {
	return fp ^ (uint64(idx)*0x9e3779b97f4a7c15 + 0x85ebca6b)
}

// htDraw is one connected completion: its deduplication fingerprint and
// conditional world probability q_w, in draw order within a chunk.
type htDraw struct {
	fp uint64
	q  xfloat.F
}
