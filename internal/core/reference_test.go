package core

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"netrel/internal/exact"
	"netrel/internal/frontier"
	"netrel/internal/order"
	"netrel/internal/ugraph"
	"netrel/internal/xfloat"
)

// testPlan is a frontier plan with the graph and edge order it was built
// from, which the plan itself does not keep.
type testPlan struct {
	*frontier.Plan
	g   *ugraph.Graph
	ord []int
}

// mustPlan builds the frontier plan of g, ts and ord.
func mustPlan(tb testing.TB, g *ugraph.Graph, ts ugraph.Terminals, ord []int) *testPlan {
	tb.Helper()
	p, err := frontier.NewPlan(g, ts, ord)
	if err != nil {
		tb.Fatal(err)
	}
	return &testPlan{p, g, ord}
}

// frontierAt reconstructs F_l by advancing the empty root frontier l
// layers.
func (p *testPlan) frontierAt(l int) []int32 {
	var cur, next []int32
	for i := 0; i < l; i++ {
		next = p.AdvanceFrontier(i, cur, next)
		cur, next = next, cur
	}
	return cur
}

// refApply is the test reference of the expansion kernel: the direct
// reading of the sink rules in frontier's package doc, one child at a
// time, with closures in place of the kernel's fused relabel pass and
// hashing. It reads only the plan's public transition, Step. It keeps
// its buffers between calls, so each goroutine needs its own.
type refApply struct {
	plan  *frontier.Plan
	mapTo []int32 // ext comp id → representative ext comp id (after merge)
	canon []int32 // ext comp id → canonical new id, or -1
}

func newRefApply(p *frontier.Plan) *refApply {
	c := p.MaxFrontier() + 3
	return &refApply{plan: p, mapTo: make([]int32, c), canon: make([]int32, c)}
}

// apply processes the edge at position l in state s with the given edge
// existence, writing the child state into out (reusing its capacity).
// earlyTerm enables the S2BDD early 1-sink detection; the classic
// construction passes false. The returned kind tells whether out is a
// live node or the transition hit a sink (out is then undefined). out
// must not alias s.
func (r *refApply) apply(l int, s *frontier.State, exists, earlyTerm bool, out *frontier.State) expandKind {
	st := r.plan.Step(l)
	nOld := len(s.Flag)

	// Extended component universe: old comps 0..nOld-1, plus entering U at
	// id nOld, entering V at id nOld+1 (when applicable).
	extCount := nOld
	cu, cv := int32(-1), int32(-1)
	var extraFlag [2]bool
	var extraT [2]uint16
	if st.SlotU >= 0 {
		cu = int32(s.Comp[st.SlotU])
	} else {
		cu = int32(extCount)
		extraFlag[extCount-nOld] = st.UTerm
		if st.UTerm {
			extraT[extCount-nOld] = 1
		}
		extCount++
	}
	if st.SlotV >= 0 {
		cv = int32(s.Comp[st.SlotV])
	} else if st.Edge.V == st.Edge.U {
		cv = cu
	} else {
		cv = int32(extCount)
		extraFlag[extCount-nOld] = st.VTerm
		if st.VTerm {
			extraT[extCount-nOld] = 1
		}
		extCount++
	}

	flagOf := func(c int32) bool {
		if int(c) < nOld {
			return s.Flag[c]
		}
		return extraFlag[int(c)-nOld]
	}
	tcntOf := func(c int32) uint16 {
		if int(c) < nOld {
			return s.Tcnt[c]
		}
		return extraT[int(c)-nOld]
	}

	mapTo := r.mapTo[:extCount]
	for i := range mapTo {
		mapTo[i] = int32(i)
	}
	merged := exists && cu != cv
	var mergedFlag bool
	var mergedT uint16
	if merged {
		mapTo[cv] = cu
		mergedFlag = flagOf(cu) || flagOf(cv)
		mergedT = tcntOf(cu) + tcntOf(cv)
	}
	repFlag := func(c int32) bool {
		if merged && c == cu {
			return mergedFlag
		}
		return flagOf(c)
	}
	repT := func(c int32) uint16 {
		if merged && c == cu {
			return mergedT
		}
		return tcntOf(c)
	}

	// Canonicalize survivors in F_{l+1} slot order: old slots in order
	// minus retirees, then entering U, then entering V.
	canon := r.canon[:extCount]
	for i := range canon {
		canon[i] = -1
	}
	out.Comp = out.Comp[:0]
	out.Flag = out.Flag[:0]
	out.Tcnt = out.Tcnt[:0]
	nextID := int32(0)
	aliveFlagged := 0
	emit := func(ec int32) {
		ec = mapTo[ec]
		if canon[ec] == -1 {
			canon[ec] = nextID
			f := repFlag(ec)
			out.Flag = append(out.Flag, f)
			out.Tcnt = append(out.Tcnt, repT(ec))
			if f {
				aliveFlagged++
			}
			nextID++
		}
		out.Comp = append(out.Comp, uint16(canon[ec]))
	}
	for slot := int32(0); slot < int32(len(s.Comp)); slot++ {
		if (slot == st.SlotU && st.URetires) || (slot == st.SlotV && st.VRetires) {
			continue
		}
		emit(int32(s.Comp[slot]))
	}
	if st.SlotU == -1 && !st.URetires {
		emit(cu)
	}
	if st.SlotV == -1 && !st.VRetires && st.Edge.V != st.Edge.U {
		emit(cv)
	}

	// Retired flagged components: representatives with no surviving slot.
	retiredFlagged := 0
	for c := int32(0); c < int32(extCount); c++ {
		if mapTo[c] != c {
			continue // absorbed into another component
		}
		if canon[c] != -1 {
			continue // survives
		}
		if repFlag(c) {
			retiredFlagged++
		}
	}

	if retiredFlagged > 0 {
		if retiredFlagged == 1 && aliveFlagged == 0 && st.Unseen == 0 {
			return expandOneSink
		}
		return expandZeroSink
	}
	if earlyTerm && aliveFlagged == 1 && st.Unseen == 0 {
		// All terminals already in one live component (Lemma 4.1).
		return expandOneSink
	}
	return expandLive
}

// stateKey appends a canonical byte encoding of the mergeable part of s
// (partition + terminal booleans, per Lemma 4.3) to dst and returns it.
// It is the reference the S2BDD's hashed key tables are tested against.
func stateKey(s *frontier.State, dst []byte) []byte {
	for _, c := range s.Comp {
		dst = append(dst, byte(c), byte(c>>8))
	}
	var cur byte
	bits := 0
	for _, f := range s.Flag {
		cur <<= 1
		if f {
			cur |= 1
		}
		bits++
		if bits == 8 {
			dst = append(dst, cur)
			cur, bits = 0, 0
		}
	}
	if bits > 0 {
		dst = append(dst, cur)
	}
	return dst
}

// cloneState deep-copies s.
func cloneState(s frontier.State) frontier.State {
	return frontier.State{Comp: slices.Clone(s.Comp), Flag: slices.Clone(s.Flag), Tcnt: slices.Clone(s.Tcnt)}
}

// bruteExpand recursively applies every edge assignment from the root
// state and returns the total probability mass reaching the 1-sink. This
// is a BDD with no merging at all — exponential, but an oracle for the
// transition rules.
func bruteExpand(t *testing.T, p *frontier.Plan, earlyTerm bool) xfloat.F {
	t.Helper()
	ref := newRefApply(p)
	pc := xfloat.Zero
	var rec func(l int, s frontier.State, pr xfloat.F)
	rec = func(l int, s frontier.State, pr xfloat.F) {
		if l == p.M() {
			t.Fatalf("state survived past the last layer: %+v", s)
		}
		e := p.Step(l).Edge
		for _, exists := range [2]bool{false, true} {
			w := 1 - e.P
			if exists {
				w = e.P
			}
			child := pr.MulFloat64(w)
			var out frontier.State
			switch ref.apply(l, &s, exists, earlyTerm, &out) {
			case expandOneSink:
				pc = pc.Add(child)
			case expandZeroSink:
				// dropped
			case expandLive:
				rec(l+1, cloneState(out), child)
			}
		}
	}
	rec(0, p.Root(), xfloat.One)
	return pc
}

func TestExpandMatchesBruteForceOnKnownGraphs(t *testing.T) {
	// Triangle, terminals {0,1}: R = 0.625 at p=0.5.
	g, _ := ugraph.FromEdges(3, []ugraph.Edge{
		{U: 0, V: 1, P: 0.5}, {U: 1, V: 2, P: 0.5}, {U: 0, V: 2, P: 0.5},
	})
	ts, _ := ugraph.NewTerminals(g, []int{0, 1})
	for _, et := range [2]bool{false, true} {
		p := mustPlan(t, g, ts, []int{0, 1, 2})
		got := bruteExpand(t, p.Plan, et).Float64()
		if math.Abs(got-0.625) > 1e-12 {
			t.Fatalf("earlyTerm=%v: R = %v, want 0.625", et, got)
		}
	}
}

// TestPropertyExpandMatchesBruteForce is the core soundness check of the
// whole reproduction: the frontier transition rules, under any edge order
// and with or without early termination, must reproduce Definition 1.
func TestPropertyExpandMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewPCG(2024, 5))
	strategies := []order.Strategy{order.Natural, order.BFS, order.DFS, order.Degree, order.RCM}
	f := func(_ int) bool {
		n := 2 + r.IntN(5)
		g := randConnected(r, n, r.IntN(5))
		if g.M() > 12 { // keep the no-merge expansion affordable
			return true
		}
		k := 1 + r.IntN(n)
		perm := r.Perm(n)
		ts, err := ugraph.NewTerminals(g, perm[:k])
		if err != nil {
			return false
		}
		want, err := exact.BruteForce(g, ts)
		if err != nil {
			return false
		}
		st := strategies[r.IntN(len(strategies))]
		ord := order.Compute(g, st, ts[0])
		et := r.IntN(2) == 0
		p, err := frontier.NewPlan(g, ts, ord)
		if err != nil {
			t.Log(err)
			return false
		}
		got := bruteExpand(t, p, et)
		if got.Sub(want).Abs().Float64() > 1e-10 {
			t.Logf("n=%d m=%d k=%d strat=%v et=%v: got %v want %v",
				n, g.M(), k, st, et, got.Float64(), want.Float64())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSingleTerminalAlwaysOne(t *testing.T) {
	// k=1: every world connects the single terminal to itself. The machine
	// is only defined for k≥2 in the paper; we verify k=1 still yields 1.
	g, _ := ugraph.FromEdges(3, []ugraph.Edge{
		{U: 0, V: 1, P: 0.3}, {U: 1, V: 2, P: 0.3},
	})
	ts, _ := ugraph.NewTerminals(g, []int{1})
	p := mustPlan(t, g, ts, []int{0, 1})
	got := bruteExpand(t, p.Plan, true).Float64()
	if math.Abs(got-1) > 1e-12 {
		t.Fatalf("k=1 reliability = %v, want 1", got)
	}
}

func TestEarlyTerminationOnlyShrinksWork(t *testing.T) {
	// With early termination, strictly fewer live states should be created
	// on a graph where terminals connect early.
	r := rand.New(rand.NewPCG(5, 6))
	g := randConnected(r, 6, 5)
	ts, _ := ugraph.NewTerminals(g, []int{0, 1})
	ord := order.Compute(g, order.BFS, 0)

	count := func(et bool) int {
		p := mustPlan(t, g, ts, ord)
		ref := newRefApply(p.Plan)
		states := 0
		var rec func(l int, s frontier.State)
		rec = func(l int, s frontier.State) {
			for _, exists := range [2]bool{false, true} {
				var out frontier.State
				if ref.apply(l, &s, exists, et, &out) == expandLive {
					states++
					rec(l+1, cloneState(out))
				}
			}
		}
		rec(0, p.Root())
		return states
	}
	with, without := count(true), count(false)
	if with > without {
		t.Fatalf("early termination created more states (%d > %d)", with, without)
	}
}

func TestStateKeyDistinguishesFlags(t *testing.T) {
	a := frontier.State{Comp: []uint16{0, 0, 1}, Flag: []bool{true, false}}
	b := frontier.State{Comp: []uint16{0, 0, 1}, Flag: []bool{false, true}}
	c := frontier.State{Comp: []uint16{0, 0, 1}, Flag: []bool{true, false}}
	ka := string(stateKey(&a, nil))
	kb := string(stateKey(&b, nil))
	kc := string(stateKey(&c, nil))
	if ka == kb {
		t.Fatal("keys must differ when flags differ")
	}
	if ka != kc {
		t.Fatal("identical states must share a key")
	}
}
