package core

import (
	"math/rand/v2"

	"netrel/internal/frontier"
	"netrel/internal/ugraph"
	"netrel/internal/unionfind"
	"netrel/internal/xfloat"
)

// completer draws possible-graph completions of an intermediate graph — the
// dynamic-programming sub-problem of Section 4.3.3. A node state at layer l
// fixes the processed edges' effect as a component partition; a completion
// instantiates the remaining edges (positions ≥ l) and tests whether all
// terminal-carrying components and still-unseen terminals coalesce.
//
// Every draw consumes exactly one variate per remaining edge, whether it
// scans them all or stops early, so a stream's position after d draws at
// layer l is a function of d and l alone (see skipPCG).
//
// A completer holds no random state of its own: each draw takes the stream
// as a parameter so one completer per worker can serve many deterministic
// per-chunk streams. A completer is not safe for concurrent use; the
// parallel driver keeps one per worker slot.
type completer struct {
	plan  *frontier.Plan
	n     int           // vertex count; element n+c stands for node component c
	coins []ugraph.Coin // the run's edges in plan order, shared read-only
	probs []float64     // their probabilities, for the HT product

	// uf works over n vertex elements plus one element per node component.
	// Each draw starts by hanging every frontier vertex beneath its
	// component's element, so edge endpoints are elements as they are.
	uf *unionfind.Arena
	// mark[x] == epoch flags root x as carrying a terminal in the current
	// draw; live counts those roots. The terminals are connected exactly
	// when live ≤ 1.
	mark  []uint64
	epoch uint64
	live  int

	fr    []int32 // owned copy of the current layer's frontier
	layer int
}

// planStream builds a run's edge stream: coins and probabilities in plan
// order, shared by all of the run's completers.
func planStream(plan *frontier.Plan) ([]ugraph.Coin, []float64) {
	g, ord := plan.Graph(), plan.Order()
	probs := make([]float64, len(ord))
	for pos, ei := range ord {
		probs[pos] = g.Edge(ei).P
	}
	return ugraph.Coins(g, ord), probs
}

func newCompleter(plan *frontier.Plan, coins []ugraph.Coin, probs []float64) *completer {
	n := plan.Graph().N()
	size := n + plan.MaxFrontier() + 2
	return &completer{
		plan:  plan,
		n:     n,
		coins: coins,
		probs: probs,
		uf:    unionfind.NewArena(size),
		mark:  make([]uint64, size),
		layer: -1,
	}
}

// setLayer switches the completer to node layer l with frontier f (in
// canonical slot order). The frontier is copied because the driver reuses
// its buffer across layers.
func (c *completer) setLayer(l int, f []int32) {
	if c.layer == l {
		return
	}
	c.fr = append(c.fr[:0], f...)
	c.layer = l
}

// begin resets the arena to st's partition and marks its terminal-carrying
// roots: the flagged components and the terminals no processed edge has
// touched yet.
func (c *completer) begin(st *frontier.State) {
	c.uf.Reset()
	c.epoch++
	for slot, v := range c.fr {
		c.uf.Attach(int(v), c.n+int(st.Comp[slot]))
	}
	c.live = 0
	for comp, flagged := range st.Flag {
		if flagged {
			c.mark[c.n+comp] = c.epoch
			c.live++
		}
	}
	for _, t := range c.plan.UnseenTerms(c.layer) {
		c.mark[t] = c.epoch
		c.live++
	}
}

// link merges distinct roots ru and rv, keeping live current. The draws
// run both Finds inline and call it only for a real merge.
func (c *completer) link(ru, rv int) {
	if ru > rv {
		ru, rv = rv, ru
	}
	c.uf.Attach(rv, ru)
	if c.mark[rv] == c.epoch {
		if c.mark[ru] == c.epoch {
			c.live--
		} else {
			c.mark[ru] = c.epoch
		}
	}
}

// drawMC draws one completion of st at the current layer and reports
// whether it connects the terminals. Edges only ever merge parts, so once
// one terminal-carrying root is left the answer is fixed: the draw stops
// there and skips rng past the coins it did not flip.
func (c *completer) drawMC(st *frontier.State, rng *rand.PCG) bool {
	c.begin(st)
	coins := c.coins[c.layer:]
	if c.live <= 1 {
		skipPCG(rng, uint64(len(coins)))
		return true
	}
	for i := range coins {
		e := &coins[i]
		if !e.Heads(rng.Uint64()) {
			continue
		}
		if ru, rv := c.uf.Find(int(e.U)), c.uf.Find(int(e.V)); ru != rv {
			c.link(ru, rv)
			if c.live == 1 {
				skipPCG(rng, uint64(len(coins)-i-1))
				return true
			}
		}
	}
	return false
}

// drawHT draws one completion of st at the current layer. It returns
// whether the terminals are connected, the conditional probability of the
// drawn completion (product over the remaining edges), and a fingerprint of
// its edge choices for HT deduplication. Both need every coin, so the scan
// runs to the end; only the union-find work stops once the answer is fixed.
func (c *completer) drawHT(st *frontier.State, rng *rand.PCG) (connected bool, pr xfloat.F, fp uint64) {
	c.begin(st)
	pr = xfloat.One
	const (
		fnvOffset = 0xcbf29ce484222325
		fnvPrime  = 0x100000001b3
	)
	fp = uint64(fnvOffset)
	coins := c.coins[c.layer:]
	probs := c.probs[c.layer:][:len(coins)]
	for i := range coins {
		e := &coins[i]
		fp *= fnvPrime
		if e.Heads(rng.Uint64()) {
			fp ^= 1
			pr = pr.MulFloat64(probs[i])
			if c.live <= 1 {
				continue
			}
			if ru, rv := c.uf.Find(int(e.U)), c.uf.Find(int(e.V)); ru != rv {
				c.link(ru, rv)
			}
		} else {
			pr = pr.MulFloat64(1 - probs[i])
		}
	}
	return c.live <= 1, pr, fp
}
