package core

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
	"sort"
	"testing"

	"netrel/internal/frontier"
	"netrel/internal/ugraph"
	"netrel/internal/unionfind"
	"netrel/internal/xfloat"
)

// pathPlan builds a 0-1-2-3 path with terminals {0,3} and natural order.
func pathPlan(t *testing.T) *testPlan {
	t.Helper()
	g, err := ugraph.FromEdges(4, []ugraph.Edge{
		{U: 0, V: 1, P: 0.5}, {U: 1, V: 2, P: 0.5}, {U: 2, V: 3, P: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts, _ := ugraph.NewTerminals(g, []int{0, 3})
	return mustPlan(t, g, ts, []int{0, 1, 2})
}

func testCompleter(p *testPlan) *completer {
	return newCompleter(p.g.N(), p.MaxFrontier(), planStream(p.g, p.ord))
}

// setPlanLayer switches c to layer l of plan.
func setPlanLayer(c *completer, plan *testPlan, l int) {
	c.setLayer(l, plan.frontierAt(l), plan.UnseenTerms(l))
}

func TestCompleterFromRoot(t *testing.T) {
	// Completing the root state (layer 0) is plain Monte Carlo over the
	// whole graph: the path connects 0 and 3 with probability 0.125.
	p := pathPlan(t)
	c := testCompleter(p)
	setPlanLayer(c, p, 0)
	root := p.Root()
	rng := pcg{1, 99}
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if c.drawMC(&root, &rng) {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-0.125) > 0.006 {
		t.Fatalf("root completion rate %v, want 0.125±0.006", got)
	}
}

func TestCompleterMidLayerConditional(t *testing.T) {
	// State after edge 0 (position 0) taken existent: component {0,1}
	// flagged (terminal 0 absorbed), frontier = {1}. Completion succeeds
	// iff edges 1 and 2 both exist: probability 0.25.
	p := pathPlan(t)
	root := p.Root()
	var st frontier.State
	if out := newRefApply(p.Plan).apply(0, &root, true, true, &st); out != expandLive {
		t.Fatalf("unexpected outcome %v", out)
	}
	c := testCompleter(p)
	setPlanLayer(c, p, 1)
	rng := pcg{1, 99}
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if c.drawMC(&st, &rng) {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-0.25) > 0.008 {
		t.Fatalf("conditional completion rate %v, want 0.25±0.008", got)
	}
}

func TestCompleterProbabilityProduct(t *testing.T) {
	// With needPr, the returned probability must be the product over the
	// remaining edges — on the 3-edge path from the root, one of the 8
	// values {0.125}.
	p := pathPlan(t)
	c := testCompleter(p)
	setPlanLayer(c, p, 0)
	root := p.Root()
	rng := pcg{3, 99}
	for i := 0; i < 50; i++ {
		_, pr, _ := c.drawHT(&root, &rng)
		if math.Abs(pr.Float64()-0.125) > 1e-12 {
			t.Fatalf("completion probability %v, want 0.125 (all edges p=0.5)", pr.Float64())
		}
	}
}

// TestCompleterFingerprintsDistinguishWorlds draws HT completions of the
// root of a triangle with distinct edge probabilities: every drawn world's
// probability must be one EnumerateWorlds gives, one fingerprint must
// always carry the same connectivity and probability, and 200 draws must
// meet all 8 worlds.
func TestCompleterFingerprintsDistinguishWorlds(t *testing.T) {
	g, err := ugraph.FromEdges(3, []ugraph.Edge{
		{U: 0, V: 1, P: 0.5}, {U: 1, V: 2, P: 0.3}, {U: 0, V: 2, P: 0.8},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts, _ := ugraph.NewTerminals(g, []int{0, 1, 2})
	p := mustPlan(t, g, ts, naturalOrder(g.M()))
	valid := map[xfloat.F]bool{}
	ugraph.EnumerateWorlds(g, func(_ []bool, pr xfloat.F) { valid[pr] = true })
	c := testCompleter(p)
	setPlanLayer(c, p, 0)
	root := p.Root()
	rng := pcg{4, 99}
	type world struct {
		ok bool
		pr xfloat.F
	}
	byFP := map[uint64]world{}
	for i := 0; i < 200; i++ {
		ok, pr, fp := c.drawHT(&root, &rng)
		if !valid[pr] {
			t.Fatalf("drawn world probability %v is no enumerated world's", pr)
		}
		if prev, seen := byFP[fp]; seen && prev != (world{ok, pr}) {
			t.Fatal("same fingerprint with different connectivity or probability")
		}
		byFP[fp] = world{ok, pr}
	}
	if len(byFP) != 8 {
		t.Fatalf("expected 8 distinct completions of a 3-edge graph, got %d", len(byFP))
	}
}

func TestHeuristicPrefersTerminalHeavyNodes(t *testing.T) {
	// Two synthetic nodes with equal mass: one with a terminal-carrying
	// component, one without. h must rank the flagged one higher.
	g, err := ugraph.FromEdges(4, []ugraph.Edge{
		{U: 0, V: 1, P: 0.5}, {U: 1, V: 2, P: 0.5}, {U: 2, V: 3, P: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts, _ := ugraph.NewTerminals(g, []int{0, 3})
	plan, err := frontier.NewPlan(g, ts, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{}
	cfg = cfg.withDefaults()
	r := &run{
		cfg:       cfg,
		plan:      plan,
		g:         g,
		k:         2,
		remaining: []int32{0, 1, 2, 1},
	}
	f := []int32{1} // frontier with one slot holding vertex 1
	flagged := frontier.State{Comp: []uint16{0}, Flag: []bool{true}, Tcnt: []uint16{1}}
	unflagged := frontier.State{Comp: []uint16{0}, Flag: []bool{false}, Tcnt: []uint16{0}}
	p := xfloat.FromFloat64(0.125)
	if r.heuristic(f, &flagged, p, new([]int32)) <= r.heuristic(f, &unflagged, p, new([]int32)) {
		t.Fatal("heuristic must prefer terminal-carrying nodes at equal mass")
	}
	// Heavier mass wins among equals.
	if r.heuristic(f, &flagged, p.MulFloat64(4), new([]int32)) <= r.heuristic(f, &flagged, p, new([]int32)) {
		t.Fatal("heuristic must grow with node probability")
	}
}

// refComplete is the full-scan completion the kernel replaced, kept as the
// reference the kernel must match bit for bit: every remaining edge's coin
// is a rand.Float64 flip against its probability, endpoints map through a
// vertex→slot table to their frontier component's element, and
// connectivity is checked once the scan ends.
func refComplete(plan *testPlan, layer int, st *frontier.State, rng *rand.Rand) (connected bool, pr xfloat.F, fp uint64) {
	g := plan.g
	n := g.N()
	vslot := map[int]int{}
	for slot, v := range plan.frontierAt(layer) {
		vslot[int(v)] = slot
	}
	elem := func(v int) int {
		if s, ok := vslot[v]; ok {
			return n + int(st.Comp[s])
		}
		return v
	}
	uf := unionfind.NewArena(n + plan.MaxFrontier() + 2)
	pr = xfloat.One
	fp = 0xcbf29ce484222325
	ord := plan.ord
	for pos := layer; pos < len(ord); pos++ {
		e := g.Edge(ord[pos])
		fp *= 0x100000001b3
		if rng.Float64() < e.P {
			fp ^= 1
			pr = pr.MulFloat64(e.P)
			uf.Union(elem(e.U), elem(e.V))
		} else {
			pr = pr.MulFloat64(1 - e.P)
		}
	}
	anchor := -1
	same := func(r int) bool {
		if anchor == -1 {
			anchor = r
		}
		return r == anchor
	}
	for comp, flagged := range st.Flag {
		if flagged && !same(uf.Find(n+comp)) {
			return false, pr, fp
		}
	}
	for _, t := range plan.UnseenTerms(layer) {
		if !same(uf.Find(elem(int(t)))) {
			return false, pr, fp
		}
	}
	return true, pr, fp
}

// randState returns a node state over a frontier of width w: a random
// partition of the slots into canonically numbered components, each
// flagged with probability flagP.
func randState(r *rand.Rand, w int, flagP float64) frontier.State {
	var st frontier.State
	for slot := 0; slot < w; slot++ {
		c := len(st.Flag)
		if c > 0 && r.IntN(3) != 0 {
			c = r.IntN(len(st.Flag))
		} else {
			st.Flag = append(st.Flag, r.Float64() < flagP)
			st.Tcnt = append(st.Tcnt, 0)
		}
		st.Comp = append(st.Comp, uint16(c))
	}
	return st
}

// pcgState encodes a stream's state as rand.PCG.MarshalBinary does, for a
// rand.PCG or a pcg alike, so the two compare directly.
func pcgState(t *testing.T, p any) string {
	t.Helper()
	switch p := p.(type) {
	case *rand.PCG:
		b, err := p.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	case *pcg:
		return pcgState(t, rand.NewPCG(p.hi, p.lo))
	}
	t.Fatalf("pcgState: unexpected stream type %T", p)
	return ""
}

// skipPCG jumps rng by n steps through pcg.jump, so the jump can be
// checked against rand.PCG's own stepping.
func skipPCG(rng *rand.PCG, n uint64) {
	b, _ := rng.MarshalBinary() // a PCG always marshals; the error is always nil
	s := pcg{binary.BigEndian.Uint64(b[4:]), binary.BigEndian.Uint64(b[12:])}
	s.jump(n)
	rng.Seed(s.hi, s.lo)
}

func TestThresholdMatchesFloat64Coin(t *testing.T) {
	r := rand.New(rand.NewPCG(11, 12))
	ps := []float64{1, 0.5, math.Nextafter(0.5, 0), math.Ldexp(1, -60), 1e-300}
	for i := 0; i < 20; i++ {
		ps = append(ps, r.Float64())
	}
	for _, p := range ps {
		c := ugraph.Coin{Thr: ugraph.Threshold(p)}
		// Every k within two of the threshold, plus random k, each with
		// random discarded high bits.
		var ks []uint64
		for d := uint64(0); d < 5; d++ {
			if k := c.Thr + d - 2; k < 1<<53 {
				ks = append(ks, k)
			}
		}
		for i := 0; i < 1000; i++ {
			ks = append(ks, r.Uint64()>>11)
		}
		for _, k := range ks {
			x := k | r.Uint64()<<53
			want := float64(k)/(1<<53) < p
			if got := c.Heads(x); got != want {
				t.Fatalf("p=%v k=%d: Heads %v, Float64 coin %v", p, k, got, want)
			}
		}
	}
}

func TestSkipPCGMatchesSteps(t *testing.T) {
	r := rand.New(rand.NewPCG(5, 6))
	ns := []uint64{0, 1, 2, 127}
	for i := 0; i < 8; i++ {
		ns = append(ns, r.Uint64N(1<<20+1))
	}
	for _, n := range ns {
		s1, s2 := r.Uint64(), r.Uint64()
		jumped, stepped := rand.NewPCG(s1, s2), rand.NewPCG(s1, s2)
		skipPCG(jumped, n)
		for i := uint64(0); i < n; i++ {
			stepped.Uint64()
		}
		if pcgState(t, jumped) != pcgState(t, stepped) || jumped.Uint64() != stepped.Uint64() {
			t.Fatalf("skip %d differs from %d steps", n, n)
		}
	}
}

// TestPCGStreamMatchesRand checks the value-type stream against rand.PCG
// output for output and state for state: next; the step table planStream
// builds for graphs of 1, 2, 3, 7 and a Hit-d-sized 12,416 edges, and
// stepMaps(0) (an edgeless graph's), at every j from 0 to M; and
// jump over the lengths TestSkipPCGMatchesSteps uses.
func TestPCGStreamMatchesRand(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 8))
	for trial := 0; trial < 10; trial++ {
		s1, s2 := r.Uint64(), r.Uint64()
		ref, got := rand.NewPCG(s1, s2), &pcg{s1, s2}
		for i := 0; i < 50; i++ {
			if g, w := got.next(), ref.Uint64(); g != w || pcgState(t, got) != pcgState(t, ref) {
				t.Fatalf("next %d: %x, rand.PCG %x (or states differ)", i, g, w)
			}
		}
	}
	for _, m := range []int{0, 1, 2, 3, 7, 12416} {
		steps := stepMaps(0)
		if m > 0 {
			// m parallel edges between the two terminals, in natural order.
			g := ugraph.New(2)
			for i := 0; i < m; i++ {
				if _, err := g.AddEdge(0, 1, 0.5); err != nil {
					t.Fatal(err)
				}
			}
			steps = planStream(g, naturalOrder(m)).steps
		}
		if len(steps) != m+1 {
			t.Fatalf("M = %d: %d step maps, want %d", m, len(steps), m+1)
		}
		for trial := 0; trial < 3; trial++ {
			s := pcg{r.Uint64(), r.Uint64()}
			ref := rand.NewPCG(s.hi, s.lo)
			for j, step := range steps {
				got := step.apply(s)
				if j > 0 {
					if g, w := got.out(), ref.Uint64(); g != w {
						t.Fatalf("M = %d: steps[%d] yields %x, rand.PCG %x", m, j, g, w)
					}
				}
				if pcgState(t, &got) != pcgState(t, ref) {
					t.Fatalf("M = %d: steps[%d] maps the stream elsewhere than %d steps", m, j, j)
				}
			}
		}
	}
	r = rand.New(rand.NewPCG(5, 6))
	ns := []uint64{0, 1, 2, 127}
	for i := 0; i < 8; i++ {
		ns = append(ns, r.Uint64N(1<<20+1))
	}
	for _, n := range ns {
		s1, s2 := r.Uint64(), r.Uint64()
		ref, got := rand.NewPCG(s1, s2), &pcg{s1, s2}
		got.jump(n)
		for i := uint64(0); i < n; i++ {
			ref.Uint64()
		}
		if pcgState(t, got) != pcgState(t, ref) || got.next() != ref.Uint64() {
			t.Fatalf("jump %d differs from %d steps", n, n)
		}
	}
}

// TestCompleterDrawsMatchReference runs one MC and one HT completer across
// random graphs, layers and node states — switching layer between draws,
// so stale per-layer state would show — and checks every draw against
// refComplete: the same answer, probability and fingerprint, and the
// stream left at the same position.
func TestCompleterDrawsMatchReference(t *testing.T) {
	r := rand.New(rand.NewPCG(21, 22))
	for trial := 0; trial < 40; trial++ {
		n := 3 + r.IntN(25)
		g := randConnected(r, n, r.IntN(3*n))
		if trial%2 == 0 {
			// Exercise the threshold extremes alongside the random ones.
			es := g.Edges()
			for i := range es {
				switch r.IntN(6) {
				case 0:
					es[i].P = 1
				case 1:
					es[i].P = math.Ldexp(1, -60)
				}
			}
		}
		k := 2 + r.IntN(min(n-1, 5))
		ts, err := ugraph.NewTerminals(g, r.Perm(n)[:k])
		if err != nil {
			t.Fatal(err)
		}
		plan := mustPlan(t, g, ts, r.Perm(g.M()))
		mc, ht := testCompleter(plan), testCompleter(plan)
		for draw := 0; draw < 60; draw++ {
			l := r.IntN(g.M() + 1)
			front := plan.frontierAt(l)
			st := randState(r, len(front), 0.4)
			setPlanLayer(mc, plan, l)
			setPlanLayer(ht, plan, l)
			seed := r.Uint64()
			ref, got := rand.NewPCG(seed, 1), &pcg{seed, 1}
			wantOK, wantPr, wantFP := refComplete(plan, l, &st, rand.New(ref))
			if ok := mc.drawMC(&st, got); ok != wantOK || pcgState(t, got) != pcgState(t, ref) {
				t.Fatalf("trial %d layer %d: MC draw %v, reference %v (or stream position differs)", trial, l, ok, wantOK)
			}
			ref, got = rand.NewPCG(seed, 2), &pcg{seed, 2}
			wantOK, wantPr, wantFP = refComplete(plan, l, &st, rand.New(ref))
			ok, pr, fp := ht.drawHT(&st, got)
			if ok != wantOK || pr != wantPr || fp != wantFP || pcgState(t, got) != pcgState(t, ref) {
				t.Fatalf("trial %d layer %d: HT draw (%v, %v, %x), reference (%v, %v, %x)", trial, l, ok, pr, fp, wantOK, wantPr, wantFP)
			}
		}
	}
}

// matchReference makes one MC and one HT draw of st at layer l from
// stream seed and compares each with refComplete: the answer, the HT
// probability and fingerprint, and the stream position afterwards.
func matchReference(t *testing.T, plan *testPlan, mc, ht *completer, l int, st *frontier.State, seed uint64) {
	t.Helper()
	setPlanLayer(mc, plan, l)
	setPlanLayer(ht, plan, l)
	ref, got := rand.NewPCG(seed, 1), &pcg{seed, 1}
	wantOK, _, _ := refComplete(plan, l, st, rand.New(ref))
	if ok := mc.drawMC(st, got); ok != wantOK || pcgState(t, got) != pcgState(t, ref) {
		t.Fatalf("layer %d: MC draw %v, reference %v (or stream position differs)", l, ok, wantOK)
	}
	ref, got = rand.NewPCG(seed, 2), &pcg{seed, 2}
	wantOK, wantPr, wantFP := refComplete(plan, l, st, rand.New(ref))
	ok, pr, fp := ht.drawHT(st, got)
	if ok != wantOK || pr != wantPr || fp != wantFP || pcgState(t, got) != pcgState(t, ref) {
		t.Fatalf("layer %d: HT draw (%v, %v, %x), reference (%v, %v, %x)", l, ok, pr, fp, wantOK, wantPr, wantFP)
	}
}

// randMultigraph returns a graph of m random edges on n vertices,
// self-loops and parallel edges included, with probabilities drawn from
// (0, 1] with the threshold extremes 1 and 2⁻⁶⁰ over-represented, plus k
// terminals among the vertices that have an edge. It returns a nil plan
// when no vertex has one.
func randMultigraph(r *rand.Rand, n, m, k int) *testPlan {
	g := ugraph.New(n)
	for i := 0; i < m; i++ {
		u, v := r.IntN(n), r.IntN(n)
		if r.IntN(4) == 0 {
			v = u
		}
		p := 1 - r.Float64()
		switch r.IntN(6) {
		case 0:
			p = 1
		case 1:
			p = math.Ldexp(1, -60)
		}
		if _, err := g.AddEdge(u, v, p); err != nil {
			panic(err)
		}
		if r.IntN(4) == 0 {
			if _, err := g.AddEdge(u, v, p); err != nil {
				panic(err)
			}
		}
	}
	var touched []int
	for v := 0; v < n; v++ {
		if g.Degree(v) > 0 {
			touched = append(touched, v)
		}
	}
	if len(touched) == 0 {
		return nil
	}
	r.Shuffle(len(touched), func(i, j int) { touched[i], touched[j] = touched[j], touched[i] })
	ts, err := ugraph.NewTerminals(g, touched[:min(k, len(touched))])
	if err != nil {
		panic(err)
	}
	ord := r.Perm(g.M())
	plan, err := frontier.NewPlan(g, ts, ord)
	if err != nil {
		panic(err)
	}
	return &testPlan{plan, g, ord}
}

// TestCompleterMatchesReferenceEdgeCases adds the shapes
// TestCompleterDrawsMatchReference's random connected graphs never make.
func TestCompleterMatchesReferenceEdgeCases(t *testing.T) {
	t.Run("loops-and-parallel", func(t *testing.T) {
		r := rand.New(rand.NewPCG(31, 32))
		for trial := 0; trial < 30; trial++ {
			plan := randMultigraph(r, 2+r.IntN(10), 1+r.IntN(30), 2+r.IntN(4))
			mc, ht := testCompleter(plan), testCompleter(plan)
			for draw := 0; draw < 40; draw++ {
				l := r.IntN(plan.M() + 1)
				st := randState(r, len(plan.frontierAt(l)), 0.4)
				matchReference(t, plan, mc, ht, l, &st, r.Uint64())
			}
		}
	})
	t.Run("power-law-closed", func(t *testing.T) {
		// A dense graph with power-law degrees and weak edges: most draws
		// leave some terminal component closed, which MC must detect
		// before it reaches the last coin.
		r := rand.New(rand.NewPCG(33, 34))
		const n = 120
		g := ugraph.New(n)
		wt := make([]float64, n+1)
		for v := 0; v < n; v++ {
			wt[v+1] = wt[v] + math.Pow(float64(v+1), -0.6)
		}
		hub := func() int {
			i := sort.SearchFloat64s(wt, r.Float64()*wt[n])
			return max(i-1, 0)
		}
		for v := 1; v < n; v++ {
			if _, err := g.AddEdge(hub()%v, v, 0.05+0.3*r.Float64()); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 900; i++ {
			u, v := hub(), hub()
			if u == v {
				continue
			}
			if _, err := g.AddEdge(u, v, 0.02+0.1*r.Float64()); err != nil {
				t.Fatal(err)
			}
		}
		ts, err := ugraph.NewTerminals(g, r.Perm(n)[:6])
		if err != nil {
			t.Fatal(err)
		}
		plan := mustPlan(t, g, ts, bfsOrder(g, ts))
		mc, ht := testCompleter(plan), testCompleter(plan)
		early := 0
		for draw := 0; draw < 200; draw++ {
			l := r.IntN(plan.M() / 4)
			st := randState(r, len(plan.frontierAt(l)), 0.3)
			before := mc.flips
			matchReference(t, plan, mc, ht, l, &st, r.Uint64())
			if mc.flips-before < int64(plan.M()-l) {
				early++
			}
		}
		if early < 100 {
			t.Fatalf("only %d of 200 MC draws stopped before the last coin", early)
		}
	})
	t.Run("no-remaining-coin", func(t *testing.T) {
		r := rand.New(rand.NewPCG(35, 36))
		for trial := 0; trial < 30; trial++ {
			plan := randMultigraph(r, 2+r.IntN(10), 1+r.IntN(20), 2+r.IntN(4))
			mc, ht := testCompleter(plan), testCompleter(plan)
			l := plan.M()
			for draw := 0; draw < 10; draw++ {
				st := randState(r, len(plan.frontierAt(l)), 0.5)
				matchReference(t, plan, mc, ht, l, &st, r.Uint64())
			}
		}
	})
}

// FuzzCompleterMatchesReference checks MC and HT draws of a random small
// multigraph plan, layer, node state and stream against refComplete.
func FuzzCompleterMatchesReference(f *testing.F) {
	f.Add(uint64(1), uint8(6), uint8(10), uint8(3), uint16(2), uint64(7))
	f.Add(uint64(2), uint8(12), uint8(40), uint8(5), uint16(0), uint64(8))
	f.Add(uint64(3), uint8(3), uint8(2), uint8(2), uint16(9), uint64(9))
	f.Fuzz(func(t *testing.T, gseed uint64, n, m, k uint8, layer uint16, seed uint64) {
		r := rand.New(rand.NewPCG(gseed, 0))
		plan := randMultigraph(r, 1+int(n%24), 1+int(m%64), 2+int(k%5))
		if plan == nil {
			return
		}
		l := int(layer) % (plan.M() + 1)
		st := randState(r, len(plan.frontierAt(l)), 0.4)
		matchReference(t, plan, testCompleter(plan), testCompleter(plan), l, &st, seed)
	})
}

var (
	benchHits   int
	benchStream *edgeStream
)

// BenchmarkCompletion times the completion-draw kernel on a synthetic dense
// graph shaped like the scaled Hit-d protein network (900 vertices, about
// 12k edges, 10 terminals), where S2BDD bounds stay loose and completion
// draws dominate: each draw completes a random node state at an early
// layer, so nearly every edge remains to be drawn. coins/draw counts the
// coins a draw evaluates: all remaining ones for HT, the ones its search
// reaches for MC. ns/flip is the time per evaluated coin, the cost of
// one step of a draw whatever its length. table times the per-run set-up
// the draws read, planStream, step-map table included.
func BenchmarkCompletion(b *testing.B) {
	r := rand.New(rand.NewPCG(1, 2))
	g := randConnected(r, 900, 11200)
	ts, err := ugraph.NewTerminals(g, r.Perm(g.N())[:10])
	if err != nil {
		b.Fatal(err)
	}
	plan := mustPlan(b, g, ts, bfsOrder(g, ts))
	l := g.M() / 50
	front := plan.frontierAt(l)
	states := make([]frontier.State, 64)
	for i := range states {
		st := randState(r, len(front), 0)
		for f := 0; f < 3 && f < len(st.Flag); f++ {
			st.Flag[r.IntN(len(st.Flag))] = true
		}
		states[i] = st
	}
	for _, est := range []string{"MC", "HT"} {
		b.Run(est, func(b *testing.B) {
			c := testCompleter(plan)
			setPlanLayer(c, plan, l)
			rng := pcg{3, 4}
			hits := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st := &states[i%len(states)]
				var ok bool
				if est == "MC" {
					ok = c.drawMC(st, &rng)
				} else {
					ok, _, _ = c.drawHT(st, &rng)
				}
				if ok {
					hits++
				}
			}
			ns := float64(b.Elapsed().Nanoseconds())
			b.ReportMetric(ns/float64(b.N), "ns/draw")
			b.ReportMetric(float64(c.flips)/float64(b.N), "coins/draw")
			b.ReportMetric(ns/float64(c.flips), "ns/flip")
			benchHits = hits
		})
	}
	b.Run("table", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchStream = planStream(g, plan.ord)
		}
	})
}
