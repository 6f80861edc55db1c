package unionfind

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// countSets returns the number of disjoint sets among a's n elements.
func countSets(a *Arena, n int) int {
	c := 0
	for i := 0; i < n; i++ {
		if a.Find(i) == i {
			c++
		}
	}
	return c
}

func TestDSUBasic(t *testing.T) {
	d := NewArena(5)
	if c := countSets(d, 5); c != 5 {
		t.Fatalf("sets = %d, want 5", c)
	}
	if !d.Union(0, 1) {
		t.Fatal("first union must merge")
	}
	if d.Union(1, 0) {
		t.Fatal("repeat union must not merge")
	}
	if d.Find(0) != d.Find(1) || d.Find(0) == d.Find(2) {
		t.Fatal("Same wrong after one union")
	}
	d.Union(2, 3)
	d.Union(0, 3)
	if c := countSets(d, 5); c != 2 {
		t.Fatalf("sets = %d, want 2", c)
	}
	if d.Find(1) != d.Find(2) {
		t.Fatal("transitive connectivity broken")
	}
}

func TestDSUReset(t *testing.T) {
	d := NewArena(4)
	d.Union(0, 1)
	d.Union(2, 3)
	d.Reset()
	if countSets(d, 4) != 4 || d.Find(0) == d.Find(1) || d.Find(2) == d.Find(3) {
		t.Fatal("Reset did not restore singletons")
	}
}

func TestDSUSingleElement(t *testing.T) {
	d := NewArena(1)
	if d.Find(0) != 0 || countSets(d, 1) != 1 {
		t.Fatal("single-element union-find broken")
	}
}

func TestArenaBasic(t *testing.T) {
	a := NewArena(6)
	a.Union(0, 1)
	a.Union(1, 2)
	if a.Find(0) != a.Find(2) || a.Find(0) == a.Find(3) {
		t.Fatal("Arena connectivity wrong")
	}
	a.Reset()
	for i := 0; i < 6; i++ {
		if a.Find(i) != i {
			t.Fatalf("after Reset Find(%d) = %d", i, a.Find(i))
		}
	}
}

func TestArenaRepeatedResetCycles(t *testing.T) {
	a := NewArena(50)
	r := rand.New(rand.NewPCG(42, 0))
	label := make([]int, 50) // reference: relabel one set on every merge
	for cycle := 0; cycle < 100; cycle++ {
		for i := range label {
			label[i] = i
		}
		for i := 0; i < 80; i++ {
			x, y := r.IntN(50), r.IntN(50)
			lx, ly := label[x], label[y]
			if got := a.Union(x, y); got != (lx != ly) {
				t.Fatalf("cycle %d: Union(%d,%d) = %v, reference %v", cycle, x, y, got, lx != ly)
			}
			for v := range label {
				if label[v] == ly {
					label[v] = lx
				}
			}
		}
		for i := 0; i < 50; i++ {
			for j := i + 1; j < 50; j += 7 {
				if (a.Find(i) == a.Find(j)) != (label[i] == label[j]) {
					t.Fatalf("cycle %d: Same(%d,%d) differs", cycle, i, j)
				}
			}
		}
		a.Reset()
	}
}

// TestPropertyDSUEquivalentToNaive checks the union-find's connectivity
// against a naive adjacency-matrix transitive closure on random union
// sequences.
func TestPropertyDSUEquivalentToNaive(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 7))
	f := func(_ int) bool {
		n := 2 + r.IntN(12)
		d := NewArena(n)
		reach := make([][]bool, n)
		for i := range reach {
			reach[i] = make([]bool, n)
			reach[i][i] = true
		}
		ops := r.IntN(20)
		for k := 0; k < ops; k++ {
			x, y := r.IntN(n), r.IntN(n)
			d.Union(x, y)
			// naive: connect x,y then recompute closure
			reach[x][y], reach[y][x] = true, true
			for {
				changed := false
				for i := 0; i < n; i++ {
					for j := 0; j < n; j++ {
						if !reach[i][j] {
							continue
						}
						for l := 0; l < n; l++ {
							if reach[j][l] && !reach[i][l] {
								reach[i][l] = true
								changed = true
							}
						}
					}
				}
				if !changed {
					break
				}
			}
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if (d.Find(i) == d.Find(j)) != reach[i][j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDSUCountMatchesComponents(t *testing.T) {
	d := NewArena(10)
	edges := [][2]int{{0, 1}, {1, 2}, {3, 4}, {5, 6}, {6, 7}, {7, 5}}
	merges := 0
	for _, e := range edges {
		if d.Union(e[0], e[1]) {
			merges++
		}
	}
	// components: {0,1,2} {3,4} {5,6,7} {8} {9} = 5
	if c := countSets(d, 10); c != 5 || 10-merges != 5 {
		t.Fatalf("sets = %d, 10 - merges = %d, want 5", c, 10-merges)
	}
}

func BenchmarkArenaUnionReset(b *testing.B) {
	a := NewArena(1000)
	r := rand.New(rand.NewPCG(1, 1))
	pairs := make([][2]int, 500)
	for i := range pairs {
		pairs[i] = [2]int{r.IntN(1000), r.IntN(1000)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range pairs {
			a.Union(p[0], p[1])
		}
		a.Reset()
	}
}
