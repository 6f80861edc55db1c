// Package estimator implements the paper's estimator mathematics: the
// Monte Carlo and Horvitz–Thompson estimators, the Monte Carlo variances
// of Equations 2 and 3, and the Theorem 1 sample-count reduction s → s′
// driven by the reliability bounds pc ≤ R ≤ 1−pd.
//
// The Horvitz–Thompson variances of Equations 8 and 9 are not implemented:
// a Horvitz–Thompson answer reports the Monte Carlo variance of Equation 3.
// The plain sampling baseline is an S2BDD sampler whose only stratum is
// the root, so its answer, MC or HT, reports Equation 3 at pc = pd = 0,
// which is Equation 2 (MCVariance) bit for bit.
package estimator

import (
	"fmt"
	"math"

	"netrel/internal/xfloat"
)

// Kind selects between the two estimators the paper analyzes.
type Kind int

const (
	// MonteCarlo is the sample-mean estimator.
	MonteCarlo Kind = iota
	// HorvitzThompson weights samples by inverse inclusion probability
	// π_i = 1 − (1 − Pr[Gp_i])^s.
	HorvitzThompson
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case MonteCarlo:
		return "mc"
	case HorvitzThompson:
		return "ht"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ReducedSamplesRaw evaluates Theorem 1's piecewise formula verbatim,
// returning ⌊s·factor⌋ which may be zero or negative when the bounds are
// very tight. Figure 4(b) reports this raw value.
func ReducedSamplesRaw(s int, pc, pd float64) int {
	if s < 0 {
		panic("estimator: negative sample count")
	}
	factor := reductionFactor(pc, pd)
	return int(math.Floor(float64(s) * factor))
}

// ReducedSamples returns the Theorem 1 sample count clamped to [1, s] while
// unresolved probability mass remains (pc + pd < 1), and 0 when the bounds
// have met (the value is exact and no sampling is needed). The paper's raw
// floor can reach 0 with a nonzero unknown band, which would void the
// estimate; the clamp preserves the theorem's guarantee direction (s′ ≤ s
// never increases variance versus the bound-free estimator).
func ReducedSamples(s int, pc, pd float64) int {
	if pc+pd >= 1-1e-15 {
		return 0
	}
	raw := ReducedSamplesRaw(s, pc, pd)
	if raw < 1 {
		return 1
	}
	if raw > s {
		return s
	}
	return raw
}

// reductionFactor computes the multiplier from Theorem 1's five cases.
func reductionFactor(pc, pd float64) float64 {
	if pc < 0 || pd < 0 || pc > 1 || pd > 1 {
		panic(fmt.Sprintf("estimator: bounds out of range pc=%v pd=%v", pc, pd))
	}
	switch {
	case pc == 0 && pd == 0:
		return 1
	case pc == 0:
		return 1 - pd
	case pd == 0:
		return 1 - pc
	case pc == pd:
		return 1 - 4*pc*(1-pc)
	case pc < pd:
		return 1 - 4*pc*(1-pd)
	default: // pc > pd
		a := 4 * pc * (1 - pc)
		b := 4 * (pc*(1-pd) + (pd - pc))
		return 1 - math.Min(a, b)
	}
}

// MCVariance is Equation 2: Var[R̂] ≈ R̂(1−R̂)/s.
func MCVariance(rHat float64, s int) float64 {
	if s <= 0 {
		return 0
	}
	return rHat * (1 - rHat) / float64(s)
}

// StratifiedMCVariance is Equation 3: Var[R̂]′ = (R̂−pc)(1−pd−R̂)/s.
func StratifiedMCVariance(rHat, pc, pd float64, s int) float64 {
	if s <= 0 {
		return 0
	}
	v := (rHat - pc) * (1 - pd - rHat) / float64(s)
	if v < 0 {
		return 0 // R̂ marginally outside [pc, 1−pd] from sampling noise
	}
	return v
}

// InclusionProb computes π_i = 1 − (1 − pr)^s for the HT estimator without
// catastrophic loss when pr is astronomically small: for tiny pr,
// π_i ≈ s·pr (first-order), computed in extended range.
func InclusionProb(pr xfloat.F, s int) xfloat.F {
	if s <= 0 {
		return xfloat.Zero
	}
	if pr.IsZero() {
		return xfloat.Zero
	}
	// log(1-pr): pr may be far below float64 range. When pr < 2^-60 the
	// linearization is exact to 53 bits: 1-(1-pr)^s = s·pr - C(s,2)pr² + …
	if pr.Exp2() < -60 {
		sp := pr.MulFloat64(float64(s))
		// second-order correction: −s(s−1)/2·pr² is negligible unless s·pr
		// itself is large; if s·pr ≥ 2^-20, fall through to log space.
		if sp.Exp2() < -20 {
			return sp
		}
		// exact in log space: π = 1 − exp(s·log(1−pr)), log(1−pr) ≈ −pr
		x := -sp.Float64() // safe: sp ≥ 2^-20 and ≤ s
		return xfloat.FromFloat64(-math.Expm1(x))
	}
	p := pr.Float64()
	return xfloat.FromFloat64(-math.Expm1(float64(s) * math.Log1p(-p)))
}

// HTEstimate aggregates a Horvitz–Thompson run: the running sum of
// Pr[Gp_i]·I_i/π_i over samples.
type HTEstimate struct {
	Samples int
	Sum     xfloat.F
}

// Add accumulates one sample with world probability pr and indicator
// connected, using the run's total sample count s for π.
func (e *HTEstimate) Add(pr xfloat.F, connected bool, s int) {
	e.Samples++
	if !connected {
		return
	}
	pi := InclusionProb(pr, s)
	if pi.IsZero() {
		return
	}
	e.Sum = e.Sum.Add(pr.Div(pi))
}

// Estimate returns the HT reliability estimate, clamped into [0,1] (HT is
// unbiased but not range-respecting at small s).
func (e *HTEstimate) Estimate() float64 {
	return e.Sum.Clamp01().Float64()
}
