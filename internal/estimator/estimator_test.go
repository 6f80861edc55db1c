package estimator

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"netrel/internal/xfloat"
)

func TestReducedSamplesCases(t *testing.T) {
	const s = 10000
	cases := []struct {
		name   string
		pc, pd float64
		want   int
	}{
		{"no bounds", 0, 0, s},
		{"pc zero", 0, 0.4, 6000},
		{"pd zero", 0.3, 0, 7000},
		{"equal", 0.2, 0.2, int(math.Floor(10000 * (1 - 4*float64(0.2)*(1-float64(0.2)))))},
		{"pc<pd", 0.1, 0.5, int(math.Floor(10000 * (1 - 4*float64(0.1)*(1-float64(0.5)))))},
		{"pc>pd min first", 0.5, 0.1, int(math.Floor(10000 * (1 - math.Min(4*0.5*0.5, 4*(0.5*0.9+(0.1-0.5))))))},
	}
	for _, c := range cases {
		if got := ReducedSamplesRaw(s, c.pc, c.pd); got != c.want {
			t.Errorf("%s: raw = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestReducedSamplesNeverExceedsS(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 1))
	f := func(_ int) bool {
		pc := r.Float64()
		pd := r.Float64() * (1 - pc)
		s := 1 + r.IntN(100000)
		sp := ReducedSamples(s, pc, pd)
		return sp >= 0 && sp <= s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestReducedSamplesMonotoneInBounds(t *testing.T) {
	// Tightening either bound must not increase s′ (with pc=0 fixed,
	// growing pd shrinks s′; symmetric case for pd=0).
	const s = 100000
	prev := s + 1
	for pd := 0.0; pd <= 1.0; pd += 0.05 {
		got := ReducedSamplesRaw(s, 0, pd)
		if got > prev {
			t.Fatalf("s' grew from %d to %d as pd increased to %v", prev, got, pd)
		}
		prev = got
	}
	prev = s + 1
	for pc := 0.0; pc <= 1.0; pc += 0.05 {
		got := ReducedSamplesRaw(s, pc, 0)
		if got > prev {
			t.Fatalf("s' grew from %d to %d as pc increased to %v", prev, got, pc)
		}
		prev = got
	}
}

func TestReducedSamplesExactWhenBoundsMeet(t *testing.T) {
	if got := ReducedSamples(10000, 0.3, 0.7); got != 0 {
		t.Fatalf("bounds met: s' = %d, want 0", got)
	}
}

func TestReducedSamplesClampsToOne(t *testing.T) {
	// pc = pd = 0.5: the equal-bounds case gives factor 1−4·0.25 = 0
	// exactly, while 10% of the mass (none here, but in general pc+pd<1
	// configurations nearby) can remain unknown; clamp keeps 1 sample.
	if raw := ReducedSamplesRaw(1000, 0.45, 0.45); raw > 1000*(1-4*0.45*0.55)+1 {
		t.Fatalf("raw too large: %d", raw)
	}
	if raw := ReducedSamplesRaw(1000, 0.499, 0.499); raw > 2 {
		t.Fatalf("expected near-zero raw, got %d", raw)
	}
	if got := ReducedSamples(1000, 0.499, 0.499); got < 1 {
		t.Fatalf("clamped s' = %d, want ≥ 1", got)
	}
}

func TestBoundsOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ReducedSamplesRaw(10, -0.1, 0)
}

// TestVarianceInequality verifies the paper's Equation 4 numerically: the
// stratified variance never exceeds the plain variance for any R̂ within
// the bounds.
func TestVarianceInequality(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 3))
	f := func(_ int) bool {
		pc := r.Float64() * 0.6
		pd := r.Float64() * (1 - pc) * 0.9
		rHat := pc + r.Float64()*(1-pd-pc)
		s := 1 + r.IntN(10000)
		return StratifiedMCVariance(rHat, pc, pd, s) <= MCVariance(rHat, s)+1e-15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestTheorem1VarianceGuarantee verifies the theorem's content end to end:
// the stratified variance with s′ samples is ≤ the plain variance with s
// samples, for all bound patterns and all R̂ consistent with the bounds.
func TestTheorem1VarianceGuarantee(t *testing.T) {
	r := rand.New(rand.NewPCG(9, 9))
	const s = 100000
	for trial := 0; trial < 5000; trial++ {
		pc := r.Float64() * 0.8
		pd := r.Float64() * (1 - pc)
		if pc+pd >= 1 {
			continue
		}
		sp := ReducedSamplesRaw(s, pc, pd)
		if sp <= 0 {
			continue // degenerate: theorem holds vacuously, clamp handles it
		}
		rHat := pc + r.Float64()*(1-pd-pc)
		vs := StratifiedMCVariance(rHat, pc, pd, sp)
		vp := MCVariance(rHat, s)
		if vs > vp+1e-12 {
			t.Fatalf("pc=%v pd=%v rHat=%v: stratified(s'=%d)=%v > plain(s=%d)=%v",
				pc, pd, rHat, sp, vs, s, vp)
		}
	}
}

func TestInclusionProbSmall(t *testing.T) {
	// Tiny pr: π ≈ s·pr.
	pr := xfloat.FromFloat64(0.5).Pow(400) // 2^-400
	s := 1000
	pi := InclusionProb(pr, s)
	want := pr.MulFloat64(float64(s))
	ratio := pi.Div(want).Float64()
	if math.Abs(ratio-1) > 1e-9 {
		t.Fatalf("π/s·pr = %v, want 1", ratio)
	}
}

func TestInclusionProbLarge(t *testing.T) {
	// pr = 0.5, s = 3: π = 1 − 0.125 = 0.875.
	pi := InclusionProb(xfloat.FromFloat64(0.5), 3).Float64()
	if math.Abs(pi-0.875) > 1e-12 {
		t.Fatalf("π = %v, want 0.875", pi)
	}
}

func TestInclusionProbEdgeCases(t *testing.T) {
	if !InclusionProb(xfloat.Zero, 10).IsZero() {
		t.Fatal("π of zero-probability world must be 0")
	}
	if !InclusionProb(xfloat.One, 0).IsZero() {
		t.Fatal("π with s=0 must be 0")
	}
	pi := InclusionProb(xfloat.One, 5).Float64()
	if math.Abs(pi-1) > 1e-12 {
		t.Fatalf("π of certain world = %v, want 1", pi)
	}
}

// TestStratifiedVarianceAtRootIsMCVariance pins Eq. 3 at pc = pd = 0 to
// Eq. 2 bit for bit: the plain sampling baseline is an S2BDD sampler with
// only the root stratum, and it reports Eq. 3.
func TestStratifiedVarianceAtRootIsMCVariance(t *testing.T) {
	rs := []float64{0, 1, 0.5, 1e-300, 1 - 1e-16, math.Nextafter(1, 0), math.SmallestNonzeroFloat64}
	for i := 1; i < 1000; i++ {
		rs = append(rs, float64(i)/1000, float64(i)/7919)
	}
	for _, r := range rs {
		for _, s := range []int{-1, 0, 1, 2, 3, 100, 511, 512, 10_000, 1 << 40} {
			if got, want := StratifiedMCVariance(r, 0, 0, s), MCVariance(r, s); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("r=%v s=%d: Eq. 3 at pc = pd = 0 gives %v, Eq. 2 %v", r, s, got, want)
			}
		}
	}
}

func TestHTEstimateUniformWorlds(t *testing.T) {
	// If every sampled world has the same probability q and all are
	// connected, the HT estimate is s·q/π which approaches 1 as s·q grows,
	// and equals s·q/(1-(1-q)^s) exactly.
	q := 0.001
	s := 500
	var e HTEstimate
	for i := 0; i < s; i++ {
		e.Add(xfloat.FromFloat64(q), true, s)
	}
	pi := -math.Expm1(float64(s) * math.Log1p(-q))
	want := float64(s) * q / pi
	if want > 1 {
		want = 1
	}
	if got := e.Estimate(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("HT estimate = %v, want %v", got, want)
	}
}

func TestHTEstimateIgnoresDisconnected(t *testing.T) {
	var e HTEstimate
	e.Add(xfloat.FromFloat64(0.5), false, 10)
	if e.Estimate() != 0 {
		t.Fatal("disconnected samples must not contribute")
	}
}
