// Package xfloat implements an extended-exponent floating point number.
//
// Network reliability computation multiplies hundreds of thousands of edge
// probabilities together; the result underflows float64 (whose smallest
// positive value is ≈ 5e-324) long before any real dataset is finished. The
// paper resolves this with Boost.Multiprecision at 10,000 decimal digits. The
// actual requirement is exponent range, not mantissa precision: sampling noise
// dwarfs 53-bit rounding error. F keeps a float64 mantissa and a separate
// int64 binary exponent, giving ~4.4e18 binary orders of magnitude of range at
// ordinary float64 speed.
//
// The zero value of F is the number 0 and is ready to use.
package xfloat

import (
	"fmt"
	"math"
	"strconv"
)

// F is an extended-range floating point value m × 2^e with |m| in [0.5, 1)
// for nonzero values. F is immutable; operations return new values.
type F struct {
	m float64 // mantissa, normalized to [0.5, 1) or (-1, -0.5]; 0 iff value is 0
	e int64   // binary exponent
}

// Zero is the F representation of 0.
var Zero = F{}

// One is the F representation of 1.
var One = FromFloat64(1)

// FromFloat64 converts a float64 to an F. NaN and infinities are rejected by
// normalizing to zero mantissa with a panic; callers in this codebase only
// construct F from finite values, and a panic here indicates a logic error
// upstream (e.g. an unvalidated probability).
func FromFloat64(x float64) F {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		panic("xfloat: FromFloat64 of non-finite value")
	}
	if x == 0 {
		return F{}
	}
	m, e := math.Frexp(x)
	return F{m: m, e: int64(e)}
}

// FromParts builds an F from an explicit mantissa×2^exp pair; the mantissa
// need not be normalized.
func FromParts(mantissa float64, exp int64) F {
	if mantissa == 0 {
		return F{}
	}
	m, e := math.Frexp(mantissa)
	return F{m: m, e: exp + int64(e)}
}

// Float64 converts back to float64. Values outside float64's range flush to 0
// or ±Inf respectively.
func (a F) Float64() float64 {
	if a.m == 0 {
		return 0
	}
	if a.e > 1100 {
		return math.Inf(sign(a.m))
	}
	if a.e < -1100 {
		return 0
	}
	return math.Ldexp(a.m, int(a.e))
}

func sign(m float64) int {
	if m < 0 {
		return -1
	}
	return 1
}

// IsZero reports whether a is exactly zero.
func (a F) IsZero() bool { return a.m == 0 }

// Sign returns -1, 0, or +1 according to the sign of a.
func (a F) Sign() int {
	switch {
	case a.m < 0:
		return -1
	case a.m > 0:
		return 1
	default:
		return 0
	}
}

// Neg returns -a.
func (a F) Neg() F {
	if a.m == 0 {
		return a
	}
	return F{m: -a.m, e: a.e}
}

// Abs returns |a|.
func (a F) Abs() F {
	if a.m < 0 {
		return F{m: -a.m, e: a.e}
	}
	return a
}

// Mul returns a×b.
func (a F) Mul(b F) F {
	if a.m == 0 || b.m == 0 {
		return F{}
	}
	return FromParts(a.m*b.m, a.e+b.e)
}

// MulFloat64 returns a×x for a plain float64 x.
func (a F) MulFloat64(x float64) F {
	return a.Mul(FromFloat64(x))
}

// Div returns a/b. Division by zero panics, as it would for integer division;
// reliability code never divides by a zero mass.
func (a F) Div(b F) F {
	if b.m == 0 {
		panic("xfloat: division by zero")
	}
	if a.m == 0 {
		return F{}
	}
	return FromParts(a.m/b.m, a.e-b.e)
}

// alignLimit is the exponent gap beyond which the smaller addend cannot
// affect the 53-bit mantissa of the larger.
const alignLimit = 64

// Add returns a+b.
func (a F) Add(b F) F {
	if a.m == 0 {
		return b
	}
	if b.m == 0 {
		return a
	}
	// Ensure a has the larger exponent.
	if b.e > a.e {
		a, b = b, a
	}
	d := a.e - b.e
	if d > alignLimit {
		return a
	}
	return FromParts(a.m+math.Ldexp(b.m, -int(d)), a.e)
}

// Sub returns a−b.
func (a F) Sub(b F) F {
	return a.Add(b.Neg())
}

// Cmp compares a and b, returning -1 if a<b, 0 if a==b, +1 if a>b.
func (a F) Cmp(b F) int {
	as, bs := a.Sign(), b.Sign()
	if as != bs {
		if as < bs {
			return -1
		}
		return 1
	}
	if as == 0 {
		return 0
	}
	// Same nonzero sign: compare exponents then mantissas. For negative
	// values the ordering flips.
	if a.e != b.e {
		c := 1
		if a.e < b.e {
			c = -1
		}
		return c * as
	}
	switch {
	case a.m < b.m:
		return -1
	case a.m > b.m:
		return 1
	default:
		return 0
	}
}

// Log returns the natural logarithm of a as a float64. It requires a > 0 and
// never overflows because it works on the exponent directly.
func (a F) Log() float64 {
	if a.m <= 0 {
		panic("xfloat: Log of non-positive value")
	}
	// The explicit conversion forces the product to round before the
	// addition, forbidding FMA fusion (Go spec §Floating-point operators):
	// Log feeds the S2BDD deletion heuristic's sort keys, and a fused
	// result on arm64 would make node deletion — and every golden value
	// downstream of it — architecture-dependent.
	return math.Log(a.m) + float64(float64(a.e)*math.Ln2)
}

// Log10 returns the base-10 logarithm of a (a > 0).
func (a F) Log10() float64 {
	return a.Log() / math.Ln10
}

// Pow returns a^n for integer n ≥ 0 by binary exponentiation.
func (a F) Pow(n int) F {
	if n < 0 {
		panic("xfloat: Pow with negative exponent")
	}
	result := One
	base := a
	for n > 0 {
		if n&1 == 1 {
			result = result.Mul(base)
		}
		base = base.Mul(base)
		n >>= 1
	}
	return result
}

// Exp2 returns the binary exponent. Meaningless for the zero value.
func (a F) Exp2() int64 { return a.e }

// String renders a in scientific decimal notation, e.g. "3.1416e-120384".
// Values representable as float64 delegate to strconv for familiar output.
func (a F) String() string {
	if a.m == 0 {
		return "0"
	}
	if a.e > -900 && a.e < 900 {
		return strconv.FormatFloat(a.Float64(), 'g', 12, 64)
	}
	// value = m × 2^e; log10 = log10(m) + e·log10(2)
	l10 := math.Log10(math.Abs(a.m)) + float64(a.e)*math.Log10(2)
	exp := math.Floor(l10)
	mant := math.Pow(10, l10-exp)
	if a.m < 0 {
		mant = -mant
	}
	return fmt.Sprintf("%.6fe%+d", mant, int64(exp))
}

// Sum adds a slice of values pairwise to limit rounding drift on long
// accumulations (the strata sums can run to millions of terms).
func Sum(xs []F) F {
	switch len(xs) {
	case 0:
		return F{}
	case 1:
		return xs[0]
	}
	mid := len(xs) / 2
	return Sum(xs[:mid]).Add(Sum(xs[mid:]))
}

// Clamp01 clamps a into [0,1]; used to tidy bounds before reporting, where
// accumulated rounding can push a probability infinitesimally outside range.
func (a F) Clamp01() F {
	if a.Sign() < 0 {
		return Zero
	}
	if a.Cmp(One) > 0 {
		return One
	}
	return a
}
