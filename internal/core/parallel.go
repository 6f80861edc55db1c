// Parallel execution of the S2BDD stratified-sampling phase.
//
// Stratum completion is embarrassingly parallel: every draw is an
// independent possible-graph completion of one deleted (or flushed) node.
// The draws of a stratum are split into fixed-size chunks whose boundaries
// depend only on the draw count; each chunk derives its own PCG stream from
// (Seed, layer, stratum, chunk) and chunk results fold in chunk order. The
// worker count therefore affects only the execution schedule, never the
// arithmetic, making results bit-identical for every worker count.
package core

import (
	"context"
	"encoding/binary"
	"math/bits"
	"math/rand/v2"

	"netrel/internal/sampling"
	"netrel/internal/xfloat"
)

// stratumChunk is the number of completion draws per deterministic work
// unit. Small enough to load-balance a 10⁴-draw stratum across many cores,
// large enough that per-chunk setup (an RNG and a frontier switch) is noise.
const stratumChunk = 128

// chunkStream is the per-chunk RNG stream constant (distinct from the
// driver stream in Compute).
const chunkStream = 0x5851f42d4c957f2d

// numChunks is the single source of the chunk-boundary rule: a stratum's
// draws split into exactly this many chunks, the last one possibly short.
func numChunks(draws int) int {
	return (draws + stratumChunk - 1) / stratumChunk
}

// completerSlot returns the worker-slot completer, creating it (and, for
// the first, the run's shared edge stream) on first use. Only the driver
// goroutine grows the slice (worker closures are built before the pool
// starts), so no locking is needed.
func (r *run) completerSlot(slot int) *completer {
	if r.coins == nil {
		r.coins, r.probs = planStream(r.plan)
	}
	for len(r.compls) <= slot {
		r.compls = append(r.compls, newCompleter(r.plan, r.coins, r.probs))
	}
	return r.compls[slot]
}

// chunkRNG builds the deterministic stream for one (layer, stratum, chunk)
// coordinate.
func (r *run) chunkRNG(layer, stratum, chunk int) *rand.PCG {
	seed := sampling.SeedStream(r.cfg.Seed, uint64(layer), uint64(stratum), uint64(chunk))
	return rand.NewPCG(seed, chunkStream)
}

// skipPCG advances rng by n steps, as n calls of Uint64 would, in O(log n).
// The PCG state is a 128-bit LCG s ↦ a·s + c; applying the map twice gives
// s ↦ a²·s + (a+1)·c, so n steps compose from the 2^i-step maps of n's set
// bits. The state is read through MarshalBinary ("pcg:" then the high and
// low words, big-endian) and written back with Seed, which sets it
// verbatim.
func skipPCG(rng *rand.PCG, n uint64) {
	if n == 0 {
		return
	}
	b, _ := rng.MarshalBinary() // a PCG always marshals; the error is always nil
	hi, lo := binary.BigEndian.Uint64(b[4:]), binary.BigEndian.Uint64(b[12:])
	// rand.PCG's multiplier and increment: the one-step map.
	ahi, alo := uint64(2549297995355413924), uint64(4865540595714422341)
	chi, clo := uint64(6364136223846793005), uint64(1442695040888963407)
	for ; n != 0; n >>= 1 {
		var carry uint64
		if n&1 != 0 {
			hi, lo = mul128(ahi, alo, hi, lo)
			lo, carry = bits.Add64(lo, clo, 0)
			hi += chi + carry
		}
		a1lo, carry := bits.Add64(alo, 1, 0)
		chi, clo = mul128(ahi+carry, a1lo, chi, clo)
		ahi, alo = mul128(ahi, alo, ahi, alo)
	}
	rng.Seed(hi, lo)
}

// mul128 returns the low 128 bits of (ahi:alo)·(bhi:blo).
func mul128(ahi, alo, bhi, blo uint64) (hi, lo uint64) {
	hi, lo = bits.Mul64(alo, blo)
	hi += ahi*blo + alo*bhi
	return hi, lo
}

// forChunkRange runs do(completer, chunk) for every chunk in the global
// window [c0, c1) of a stratum at layer with frontier front, across up to
// r.workers slots — executed by the shared pool when cfg.Exec is set,
// otherwise by per-call goroutines. Each slot owns one completer (union-find
// arena + frontier copy), switched to the stratum's layer before its first
// chunk. Chunk indices, and therefore RNG streams, are global: executing a
// stratum's chunks across several windows folds exactly like executing
// them in one, and the execution venue never changes the fold.
// Cancellation stops the window at a chunk boundary.
func (r *run) forChunkRange(ctx context.Context, layer int, front []int32, c0, c1 int, do func(c *completer, chunk int)) error {
	slot := 0
	return sampling.ForEachChunkRangeCtx(ctx, r.cfg.Exec, c0, c1-c0, r.workers, func() func(int) {
		comp := r.completerSlot(slot)
		slot++
		comp.setLayer(layer, front)
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
