package netrel

// Native Go fuzz target (PR 4 satellite): fuzz bytes decode into a small
// uncertain graph plus a terminal set, and every decoded case is
// cross-checked against the brute-force possible-world oracle. The
// assertions are all theorem-backed or deterministic — proven bounds must
// bracket the truth, exact mode must match the oracle, and worker counts
// must not change a bit — so the target has no sampling-variance
// flakiness; any failure is a real solver bug. CI runs it as a short
// -fuzztime smoke on top of the committed seed corpus (testdata/fuzz).

import (
	"testing"

	"netrel/internal/exact"
	"netrel/internal/ugraph"
)

// decodeFuzzGraph turns fuzz bytes into a graph and terminal set:
// byte 0 picks n ∈ [3, 9], byte 1 picks the terminal count and offset, and
// each following byte pair proposes one edge (endpoints mod n, probability
// from the pair's mix). At most 16 edges keeps the 2^m oracle instant.
// Returns ok=false for inputs that decode to no usable graph.
func decodeFuzzGraph(data []byte) (g *Graph, terms []int, ok bool) {
	if len(data) < 4 {
		return nil, nil, false
	}
	n := 3 + int(data[0]%7)
	g = NewGraph(n)
	seen := map[[2]int]bool{}
	for i := 2; i+1 < len(data) && g.M() < 16; i += 2 {
		u, v := int(data[i])%n, int(data[i+1])%n
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		if seen[[2]int{u, v}] {
			continue
		}
		seen[[2]int{u, v}] = true
		p := float64(1+(int(data[i])+3*int(data[i+1]))%97) / 100 // 0.01..0.97
		if err := g.AddEdge(u, v, p); err != nil {
			return nil, nil, false
		}
	}
	if g.M() == 0 {
		return nil, nil, false
	}
	k := 2 + int(data[1]%2)
	if k > n {
		k = n
	}
	off := int(data[1] >> 2)
	terms = make([]int, k)
	for i := range terms {
		terms[i] = (off + i) % n
	}
	return g, terms, true
}

func FuzzReliabilityMatchesExact(f *testing.F) {
	// Seed corpus spanning the decoder's range: path, triangle+pendant,
	// dense mesh, near-certain and near-impossible probabilities,
	// multi-terminal. Mirrored as committed files in
	// testdata/fuzz/FuzzReliabilityMatchesExact.
	f.Add([]byte{0x00, 0x00, 0x00, 0x01, 0x01, 0x02})
	f.Add([]byte{0x03, 0x01, 0x00, 0x01, 0x01, 0x02, 0x02, 0x03, 0x03, 0x00, 0x00, 0x02})
	f.Add([]byte{0x06, 0x0f, 0x00, 0x01, 0x01, 0x02, 0x02, 0x03, 0x03, 0x04, 0x04, 0x05,
		0x05, 0x06, 0x06, 0x07, 0x07, 0x08, 0x08, 0x00, 0x00, 0x04, 0x02, 0x06})
	f.Add([]byte{0x05, 0x21, 0x10, 0x21, 0x32, 0x43, 0x54, 0x65, 0x76, 0x07})
	f.Add([]byte{0x02, 0x13, 0xff, 0xfe, 0xfd, 0xfc, 0xfb, 0xfa})

	f.Fuzz(func(t *testing.T, data []byte) {
		g, terms, ok := decodeFuzzGraph(data)
		if !ok {
			t.Skip("undecodable input")
		}
		ts, err := ugraph.NewTerminals(g.internal(), terms)
		if err != nil {
			t.Skip("invalid terminal set")
		}
		truthX, err := exact.BruteForce(g.internal(), ts)
		if err != nil {
			t.Fatalf("brute force rejected decoded graph: %v", err)
		}
		truth := truthX.Float64()

		// Exact mode must reproduce the oracle (to summation rounding).
		ex, err := Exact(g, terms, WithMaxWidth(1<<16))
		if err != nil {
			t.Fatalf("Exact: %v", err)
		}
		if d := absDiff(ex.Reliability, truth); d > exactAgreeTol {
			t.Fatalf("Exact %v vs brute force %v (diff %g)", ex.Reliability, truth, d)
		}

		// The sampling path under a width that forces deletion: proven
		// bounds bracket the truth and the estimate, per theorem.
		base, err := Reliability(g, terms, WithSamples(400), WithSeed(1), WithMaxWidth(4), WithWorkers(1))
		if err != nil {
			t.Fatalf("Reliability: %v", err)
		}
		if base.Lower > truth+boundSlack || truth > base.Upper+boundSlack {
			t.Fatalf("bounds [%v, %v] do not bracket brute force %v", base.Lower, base.Upper, truth)
		}
		if base.Reliability < base.Lower-boundSlack || base.Reliability > base.Upper+boundSlack {
			t.Fatalf("estimate %v outside own bounds [%v, %v]", base.Reliability, base.Lower, base.Upper)
		}

		// Worker counts (sampling and construction) must not change a bit.
		par, err := Reliability(g, terms, WithSamples(400), WithSeed(1), WithMaxWidth(4),
			WithWorkers(4))
		if err != nil {
			t.Fatalf("Reliability workers=4: %v", err)
		}
		assertSameResult(t, "fuzz workers=4", base, par)
	})
}
