package ugraph

import (
	"errors"
	"testing"
)

func deltaTestGraph(t *testing.T) *Graph {
	t.Helper()
	g, err := FromEdges(4, []Edge{
		{U: 0, V: 1, P: 0.5},
		{U: 1, V: 2, P: 0.6},
		{U: 2, V: 3, P: 0.7},
		{U: 3, V: 0, P: 0.8},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestApplyDeltaEmpty(t *testing.T) {
	g := deltaTestGraph(t)
	ng, m, err := ApplyDelta(g, Delta{})
	if err != nil {
		t.Fatal(err)
	}
	if ng == g {
		t.Fatal("ApplyDelta returned the receiver, want a clone")
	}
	if ng.M() != g.M() || ng.N() != g.N() {
		t.Fatalf("clone shape %d/%d, want %d/%d", ng.N(), ng.M(), g.N(), g.M())
	}
	for i := range m {
		if m[i] != i {
			t.Fatalf("oldToNew[%d]=%d, want identity", i, m[i])
		}
	}
}

func TestApplyDeltaMixed(t *testing.T) {
	g := deltaTestGraph(t)
	ng, m, err := ApplyDelta(g, Delta{
		SetProb: []ProbUpdate{{Edge: 0, P: 0.25}},
		Remove:  []int{2},
		Add:     []Edge{{U: 1, V: 3, P: 0.9}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.Edge(0).P != 0.5 {
		t.Fatalf("base graph mutated: edge 0 p=%v", g.Edge(0).P)
	}
	if ng.M() != 4 {
		t.Fatalf("new graph has %d edges, want 4", ng.M())
	}
	want := []Edge{{0, 1, 0.25}, {1, 2, 0.6}, {3, 0, 0.8}, {1, 3, 0.9}}
	for i, e := range want {
		if ng.Edge(i) != e {
			t.Fatalf("edge %d = %+v, want %+v", i, ng.Edge(i), e)
		}
	}
	wantMap := []int{0, 1, -1, 2}
	for i, w := range wantMap {
		if m[i] != w {
			t.Fatalf("oldToNew[%d]=%d, want %d", i, m[i], w)
		}
	}
}

func TestDeltaValidate(t *testing.T) {
	g := deltaTestGraph(t)
	cases := []struct {
		name string
		d    Delta
		err  error
	}{
		{"remove out of range", Delta{Remove: []int{9}}, ErrDelta},
		{"remove twice", Delta{Remove: []int{1, 1}}, ErrDelta},
		{"setprob out of range", Delta{SetProb: []ProbUpdate{{Edge: -1, P: 0.5}}}, ErrDelta},
		{"setprob duplicate", Delta{SetProb: []ProbUpdate{{Edge: 1, P: 0.5}, {Edge: 1, P: 0.6}}}, ErrDelta},
		{"setprob on removed", Delta{SetProb: []ProbUpdate{{Edge: 1, P: 0.5}}, Remove: []int{1}}, ErrDelta},
		{"setprob bad p", Delta{SetProb: []ProbUpdate{{Edge: 1, P: 0}}}, ErrProbRange},
		{"add bad vertex", Delta{Add: []Edge{{U: 0, V: 4, P: 0.5}}}, ErrVertexRange},
		{"add self loop", Delta{Add: []Edge{{U: 2, V: 2, P: 0.5}}}, ErrDelta},
		{"add bad p", Delta{Add: []Edge{{U: 0, V: 2, P: 1.5}}}, ErrProbRange},
	}
	for _, c := range cases {
		if err := c.d.Validate(g); !errors.Is(err, c.err) {
			t.Errorf("%s: err=%v, want %v", c.name, err, c.err)
		}
	}
	if err := (Delta{}).Validate(g); err != nil {
		t.Errorf("empty delta invalid: %v", err)
	}
}

func TestDeltaPredicates(t *testing.T) {
	if (Delta{SetProb: []ProbUpdate{{Edge: 0, P: 0.5}}}).TopologyChanged() {
		t.Error("prob-only delta reports topology change")
	}
	if !(Delta{Remove: []int{0}}).TopologyChanged() {
		t.Error("removal not a topology change")
	}
	if !(Delta{Add: []Edge{{U: 0, V: 1, P: 0.5}}}).TopologyChanged() {
		t.Error("addition not a topology change")
	}
}
