package core

import (
	"context"
	"fmt"

	"netrel/internal/frontier"
	"netrel/internal/ugraph"
)

// ReachCounts draws the cfg.Samples worlds of NewRootSampler and returns,
// for every vertex v, the number in which v is connected to source. Coin i
// of a draw reads variate i of its chunk's stream whatever the walk
// reaches, so counts[v]/Samples is the root sampler's Monte Carlo estimate
// for {source, v}, bit for bit, for any worker count. Of cfg it reads only
// Samples, which must be positive, Seed, Workers and Exec. A cancelled ctx
// stops the draws at a chunk boundary and returns ctx.Err().
func ReachCounts(ctx context.Context, g *ugraph.Graph, source int, cfg Config) ([]int, error) {
	if source < 0 || source >= g.N() {
		return nil, fmt.Errorf("%w: source %d with n=%d", ugraph.ErrVertexRange, source, g.N())
	}
	r, err := newRootRun(ctx, g, []int{source},
		Config{Samples: cfg.Samples, Seed: cfg.Seed, Workers: cfg.Workers, Exec: cfg.Exec})
	if err != nil {
		return nil, err
	}
	st := r.strata[0]
	err = r.forChunkRange(ctx, st, 0, numChunks(st.draws), func(comp *completer, chunk int) {
		rng := r.chunkRNG(st.layer, st.ordinal, chunk)
		for d := chunk * stratumChunk; d < min(st.draws, (chunk+1)*stratumChunk); d++ {
			rng.next() // the pick among the stratum's one snapshot
			comp.drawReach(&rng)
		}
	})
	if err != nil {
		return nil, err
	}
	counts := make([]int, g.N())
	for _, comp := range r.compls {
		for v, k := range comp.reached {
			counts[v] += k
		}
	}
	return counts, nil
}

// drawReach draws one root world at layer 0 and counts in c.reached every
// vertex connected to the unseen terminals, walking out from them and
// flipping the coins of the edges it reaches. As in drawMC, the coin at
// position i reads steps[i+1] of the draw's start state, and the stream
// ends at steps[M].
func (c *completer) drawReach(rng *pcg) {
	at, steps := *rng, c.edges.steps
	*rng = steps[len(c.edges.coins)].apply(at)
	if c.reached == nil {
		c.reached = make([]int, c.n)
	}
	c.begin(&frontier.State{})
	coins, adjAt, adj := c.edges.coins, c.edges.adjAt, c.edges.adj
	for h := 0; h < len(c.queue); h++ {
		v := c.queue[h]
		c.reached[v]++
		for _, a := range adj[adjAt[v]:adjAt[v+1]] {
			if c.mark[a.to] != c.epoch && coins[a.pos].Heads(steps[a.pos+1].apply(at).out()) {
				c.mark[a.to] = c.epoch
				c.queue = append(c.queue, a.to)
			}
		}
	}
}
