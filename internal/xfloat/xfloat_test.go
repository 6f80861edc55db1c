package xfloat

import (
	"math"
	"math/big"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// bigOf converts an F to a big.Float for reference arithmetic.
func bigOf(a F) *big.Float {
	f := new(big.Float).SetPrec(200).SetFloat64(a.m)
	return f.SetMantExp(f, int(a.e)+f.MantExp(nil))
}

// approxEqual compares an F against a big.Float reference with relative
// tolerance tol.
func approxEqual(a F, ref *big.Float, tol float64) bool {
	got := bigOf(a)
	if ref.Sign() == 0 {
		return got.Sign() == 0
	}
	diff := new(big.Float).Sub(got, ref)
	diff.Quo(diff, new(big.Float).Abs(ref))
	d, _ := diff.Float64()
	return math.Abs(d) <= tol
}

func TestFromFloat64RoundTrip(t *testing.T) {
	cases := []float64{0, 1, -1, 0.5, 2, 1e-300, 1e300, 3.14159, -2.71828, 123456.789}
	for _, x := range cases {
		if got := FromFloat64(x).Float64(); got != x {
			t.Errorf("round trip %v: got %v", x, got)
		}
	}
}

func TestFromFloat64PanicsOnNaN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on NaN")
		}
	}()
	FromFloat64(math.NaN())
}

func TestFromFloat64PanicsOnInf(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on Inf")
		}
	}()
	FromFloat64(math.Inf(1))
}

func TestZeroValueIsZero(t *testing.T) {
	var z F
	if !z.IsZero() || z.Float64() != 0 || z.Sign() != 0 {
		t.Fatal("zero value of F must represent 0")
	}
	if z.String() != "0" {
		t.Fatalf("zero String = %q", z.String())
	}
}

func TestTinyProductDoesNotUnderflow(t *testing.T) {
	// 200,000 multiplications by 0.2: value = 0.2^200000 ≈ 10^-139794.
	v := One
	p := FromFloat64(0.2)
	for i := 0; i < 200000; i++ {
		v = v.Mul(p)
	}
	if v.IsZero() {
		t.Fatal("product underflowed to zero")
	}
	wantLog10 := 200000 * math.Log10(0.2)
	if got := v.Log10(); math.Abs(got-wantLog10) > 1e-6*math.Abs(wantLog10) {
		t.Fatalf("log10 = %v, want %v", got, wantLog10)
	}
}

func TestAddOfVastlyDifferentMagnitudes(t *testing.T) {
	big := FromFloat64(1)
	tiny := FromParts(1, -100000)
	sum := big.Add(tiny)
	if sum.Cmp(big) != 0 {
		t.Fatal("adding a 2^-100000 value should be absorbed")
	}
	sum = tiny.Add(big)
	if sum.Cmp(big) != 0 {
		t.Fatal("Add must be symmetric for absorbed operands")
	}
}

func TestSubToZero(t *testing.T) {
	a := FromFloat64(0.37)
	if !a.Sub(a).IsZero() {
		t.Fatal("a - a must be zero")
	}
}

func TestCmpOrdering(t *testing.T) {
	vals := []F{
		FromFloat64(-2), FromFloat64(-1), FromParts(-1, -50), Zero,
		FromParts(1, -50), FromFloat64(0.5), One, FromFloat64(2),
	}
	for i := range vals {
		for j := range vals {
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got := vals[i].Cmp(vals[j]); got != want {
				t.Errorf("Cmp(%v,%v) = %d, want %d", vals[i], vals[j], got, want)
			}
		}
	}
}

func TestPow(t *testing.T) {
	a := FromFloat64(0.9)
	got := a.Pow(10).Float64()
	want := math.Pow(0.9, 10)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("0.9^10 = %v, want %v", got, want)
	}
	if a.Pow(0).Cmp(One) != 0 {
		t.Fatal("a^0 must be 1")
	}
	if !Zero.Pow(3).IsZero() {
		t.Fatal("0^3 must be 0")
	}
}

func TestStringExtremeValues(t *testing.T) {
	v := FromFloat64(0.2).Pow(100000)
	s := v.String()
	if s == "0" || s == "" {
		t.Fatalf("String of tiny value should be scientific, got %q", s)
	}
}

func TestSumPairwise(t *testing.T) {
	xs := make([]F, 1000)
	for i := range xs {
		xs[i] = FromFloat64(0.001)
	}
	got := Sum(xs).Float64()
	if math.Abs(got-1.0) > 1e-9 {
		t.Fatalf("Sum of 1000×0.001 = %v", got)
	}
	if !Sum(nil).IsZero() {
		t.Fatal("Sum(nil) must be zero")
	}
}

func TestClamp01(t *testing.T) {
	if got := FromFloat64(-0.5).Clamp01(); !got.IsZero() {
		t.Fatalf("Clamp01(-0.5) = %v", got)
	}
	if got := FromFloat64(1.5).Clamp01(); got.Cmp(One) != 0 {
		t.Fatalf("Clamp01(1.5) = %v", got)
	}
	p := FromFloat64(0.25)
	if got := p.Clamp01(); got.Cmp(p) != 0 {
		t.Fatalf("Clamp01(0.25) = %v", got)
	}
}

// randF draws an F with mantissa from r and exponent uniform over a wide
// range so that property tests exercise out-of-float64-range magnitudes.
func randF(r *rand.Rand, expRange int64) F {
	m := r.Float64()*2 - 1 // (-1, 1)
	if m == 0 {
		m = 0.5
	}
	e := r.Int64N(2*expRange) - expRange
	return FromParts(m, e)
}

func TestPropertyMulMatchesBig(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	f := func(_ int) bool {
		a, b := randF(r, 5000), randF(r, 5000)
		ref := new(big.Float).SetPrec(200).Mul(bigOf(a), bigOf(b))
		return approxEqual(a.Mul(b), ref, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyAddMatchesBig(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 4))
	f := func(_ int) bool {
		// Keep exponents near each other so the big.Float reference is
		// meaningfully exercised (far-apart sums are absorption, tested
		// separately).
		a := randF(r, 100)
		b := randF(r, 100)
		ref := new(big.Float).SetPrec(200).Add(bigOf(a), bigOf(b))
		return approxEqual(a.Add(b), ref, 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyDivMatchesBig(t *testing.T) {
	r := rand.New(rand.NewPCG(5, 6))
	f := func(_ int) bool {
		a, b := randF(r, 5000), randF(r, 5000)
		if b.IsZero() {
			return true
		}
		ref := new(big.Float).SetPrec(200).Quo(bigOf(a), bigOf(b))
		return approxEqual(a.Div(b), ref, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyCmpConsistentWithSub(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 8))
	f := func(_ int) bool {
		a, b := randF(r, 100), randF(r, 100)
		return a.Cmp(b) == a.Sub(b).Sign()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyMulCommutativeAssociative(t *testing.T) {
	r := rand.New(rand.NewPCG(9, 10))
	f := func(_ int) bool {
		a, b, c := randF(r, 2000), randF(r, 2000), randF(r, 2000)
		if a.Mul(b).Cmp(b.Mul(a)) != 0 {
			return false
		}
		l := a.Mul(b).Mul(c)
		rr := a.Mul(b.Mul(c))
		if l.IsZero() && rr.IsZero() {
			return true
		}
		if l.IsZero() != rr.IsZero() {
			return false
		}
		return math.Abs(l.Div(rr).Float64()-1) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	One.Div(Zero)
}

func BenchmarkMul(b *testing.B) {
	x := FromFloat64(0.3)
	acc := One
	for i := 0; i < b.N; i++ {
		acc = acc.Mul(x)
	}
	_ = acc
}

func BenchmarkAdd(b *testing.B) {
	x := FromFloat64(1e-9)
	acc := Zero
	for i := 0; i < b.N; i++ {
		acc = acc.Add(x)
	}
	_ = acc
}
