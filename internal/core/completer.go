package core

import (
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
// The coin of the edge at position l+i always reads variate i of the
// draw's stream, computed on its own from the draw's start state through
// the run's table of step maps. A Monte Carlo draw is a search: it grows
// the terminal-carrying components along the edges whose coins come up
// heads and stops as soon as the terminals join or one of those components
// can grow no further, so it computes only the variates of the coins the
// search reaches. Yet every draw, MC or HT, leaves the stream one variate
// per remaining edge further on, so a stream's position after d draws at
// layer l is a function of d and l alone (see pcg.jump).
//
// A completer holds no random state of its own: each draw takes the stream
// as a parameter so one completer per worker can serve many deterministic
// per-chunk streams. A completer is not safe for concurrent use; the
// parallel driver keeps one per worker slot, and the blank fields at both
// ends keep the slots' draw-by-draw writes off each other's cache lines.
type completer struct {
	_ [64]byte

	n     int         // vertex count; element n+c stands for node component c
	edges *edgeStream // the run's edges, shared read-only

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

	// The MC search. queue holds the elements it has reached, in order;
	// pend[r] counts the reached elements under root r not yet expanded.
	// head[c] is the first frontier slot of component c and nextSlot[s]
	// the slot after s in the same component, -1 ending either.
	queue    []int32
	pend     []int32
	head     []int32
	nextSlot []int32

	fr     []int32 // owned copy of the current layer's frontier
	unseen []int32 // the terminals no edge before the current layer touches
	layer  int

	// flips counts the coins evaluated over all draws: every remaining one
	// for HT, the ones its search reaches for MC. It is a function of the
	// draws made alone, whichever completer made them, so the run's total
	// is Result.Flips.
	flips   int64
	reached []int // per-vertex counts of drawReach, made by its first draw

	_ [64]byte
}

// edgeStream is a run's edge data in processing order, built once and
// shared read-only by all of its completers. M, the number of positions,
// is len(coins).
type edgeStream struct {
	coins []ugraph.Coin // the edges in processing order
	probs []float64     // their probabilities, for the HT product
	// adj[adjAt[v]:adjAt[v+1]] lists vertex v's edges, highest position
	// first, so the edges left at layer l are a prefix of the list.
	// Self-loops join nothing and are left out.
	adjAt []int32
	adj   []arc
	// steps[j] is the j-step map of the stream, j = 0..M: the coin at
	// position l+k of a draw at layer l whose stream starts at state s
	// reads steps[k+1].apply(s).out().
	steps []lcgMap
}

// arc is one end of an edge: its position and its other endpoint.
type arc struct{ pos, to int32 }

// planStream builds the edgeStream of g's edges in the order ord (a
// permutation of edge indices).
func planStream(g *ugraph.Graph, ord []int) *edgeStream {
	n := g.N()
	es := &edgeStream{
		coins: ugraph.Coins(g, ord),
		probs: make([]float64, len(ord)),
		adjAt: make([]int32, n+1),
		steps: stepMaps(len(ord)),
	}
	for pos, ei := range ord {
		es.probs[pos] = g.Edge(ei).P
	}
	for _, e := range es.coins {
		if e.U != e.V {
			es.adjAt[e.U+1]++
			es.adjAt[e.V+1]++
		}
	}
	for v := 0; v < n; v++ {
		es.adjAt[v+1] += es.adjAt[v]
	}
	es.adj = make([]arc, es.adjAt[n])
	at := append([]int32(nil), es.adjAt[:n]...)
	for pos := len(es.coins) - 1; pos >= 0; pos-- {
		e := es.coins[pos]
		if e.U != e.V {
			es.adj[at[e.U]] = arc{int32(pos), e.V}
			es.adj[at[e.V]] = arc{int32(pos), e.U}
			at[e.U]++
			at[e.V]++
		}
	}
	return es
}

// newCompleter returns a completer over n vertices for frontiers of up to
// maxFrontier slots, drawing the edges of the stream edges.
func newCompleter(n, maxFrontier int, edges *edgeStream) *completer {
	size := n + maxFrontier + 2
	return &completer{
		n:        n,
		edges:    edges,
		uf:       unionfind.NewArena(size),
		mark:     make([]uint64, size),
		queue:    make([]int32, 0, size),
		pend:     make([]int32, size),
		head:     make([]int32, maxFrontier),
		nextSlot: make([]int32, maxFrontier),
		layer:    -1,
	}
}

// setLayer switches the completer to node layer l with frontier f (in
// canonical slot order) and the terminals unseen before l. The frontier is
// copied because the driver reuses its buffer across layers; unseen is
// only read.
func (c *completer) setLayer(l int, f, unseen []int32) {
	if c.layer == l {
		return
	}
	c.fr = append(c.fr[:0], f...)
	c.unseen = unseen
	c.layer = l
}

// begin resets the arena to st's partition and marks and queues its
// terminal-carrying roots: first the terminals no processed edge has
// touched yet, then the flagged components. The order changes no answer,
// only how many coins drawMC reaches. Expanding a flagged component walks
// the remaining edges of every frontier vertex in it, and under a BFS edge
// order the component holding the first terminal spans most of the
// frontier; an unseen terminal is one vertex, whose search often finds its
// component closed, or joined to another terminal, after a few coins.
func (c *completer) begin(st *frontier.State) {
	c.uf.Reset()
	c.epoch++
	for slot, v := range c.fr {
		c.uf.Attach(int(v), c.n+int(st.Comp[slot]))
	}
	c.queue = c.queue[:0]
	for _, t := range c.unseen {
		c.mark[t] = c.epoch
		c.queue = append(c.queue, t)
	}
	for comp, flagged := range st.Flag {
		if flagged {
			c.mark[c.n+comp] = c.epoch
			c.queue = append(c.queue, int32(c.n+comp))
		}
	}
	c.live = len(c.queue)
}

// link merges distinct roots ru and rv, keeping live current, and returns
// the merged root. The draws run both Finds inline and call it only for a
// real merge.
func (c *completer) link(ru, rv int) int {
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
	return ru
}

// drawMC draws one completion of st at the current layer and reports
// whether it connects the terminals. It searches outward from the
// terminal-carrying elements in the order begin queues them, unseen
// terminals first: expanding an element walks its vertices' remaining
// edges, flips each coin that could join two components, and queues the
// unreached elements that heads edges join. Edges only ever merge parts,
// so the answer is fixed, and the draw stops, once one terminal-carrying
// root is left (connected) or once a root has no element left to expand
// (that component is closed: disconnected). Any queue order gives the same
// answer and stream; only the number of coins flipped changes.
//
// A flipped coin computes its own variate from the draw's start state, and
// the stream is set, by one table lookup, to where it would be after all
// M − layer of them.
func (c *completer) drawMC(st *frontier.State, rng *pcg) bool {
	at, steps := *rng, c.edges.steps
	*rng = steps[len(c.edges.coins)-c.layer].apply(at)
	c.begin(st)
	if c.live <= 1 {
		return true
	}
	for comp := range st.Flag {
		c.head[comp] = -1
	}
	for slot := len(c.fr) - 1; slot >= 0; slot-- {
		comp := st.Comp[slot]
		c.nextSlot[slot] = c.head[comp]
		c.head[comp] = int32(slot)
	}
	for _, x := range c.queue {
		c.pend[x] = 1
	}
	l, n := c.layer, c.n
	coins, adjAt, adj := c.edges.coins, c.edges.adjAt, c.edges.adj
	flipped := int64(0)
	for h := 0; h < len(c.queue); h++ {
		x := int(c.queue[h])
		rx := c.uf.Find(x)
		// A component element stands for its frontier slots' vertices.
		v, slot := x, int32(-1)
		if x >= n {
			slot = c.head[x-n]
		}
		for ; v < n || slot >= 0; v = n {
			if slot >= 0 {
				v, slot = int(c.fr[slot]), c.nextSlot[slot]
			}
			for _, a := range adj[adjAt[v]:adjAt[v+1]] {
				if int(a.pos) < l {
					break
				}
				rw := c.uf.Find(int(a.to))
				if rw == rx {
					continue
				}
				flipped++
				if !coins[a.pos].Heads(steps[int(a.pos)-l+1].apply(at).out()) {
					continue
				}
				p := c.pend[rx]
				if c.mark[rw] == c.epoch {
					p += c.pend[rw]
				} else {
					p++
					c.queue = append(c.queue, int32(rw))
				}
				rx = c.link(rx, rw)
				c.pend[rx] = p
				if c.live == 1 {
					c.flips += flipped
					return true
				}
			}
		}
		if c.pend[rx]--; c.pend[rx] == 0 {
			break
		}
	}
	c.flips += flipped
	return false
}

// drawHT draws one completion of st at the current layer. It returns
// whether the terminals are connected, the conditional probability of the
// drawn completion (product over the remaining edges), and a fingerprint of
// its edge choices for HT deduplication. Both need every coin, so the scan
// runs to the end; only the union-find work stops once the answer is fixed.
func (c *completer) drawHT(st *frontier.State, rng *pcg) (connected bool, pr xfloat.F, fp uint64) {
	c.begin(st)
	pr = xfloat.One
	const (
		fnvOffset = 0xcbf29ce484222325
		fnvPrime  = 0x100000001b3
	)
	fp = uint64(fnvOffset)
	at := *rng
	coins := c.edges.coins[c.layer:]
	probs := c.edges.probs[c.layer:][:len(coins)]
	steps := c.edges.steps[:len(coins)+1]
	*rng = steps[len(coins)].apply(at)
	c.flips += int64(len(coins))
	for i := range coins {
		e := &coins[i]
		fp *= fnvPrime
		if e.Heads(steps[i+1].apply(at).out()) {
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
