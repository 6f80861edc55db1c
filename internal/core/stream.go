package core

import "math/bits"

// pcg is the state of a math/rand/v2 PCG stream held as a value: the
// 128-bit LCG state s ↦ a·s + c and, per step, the DXSM output of the new
// state. rand.NewPCG(hi, lo) starts the same stream, so a pcg{hi, lo} and
// a rand.PCG seeded alike yield the same variates. As a value it lives in
// the caller's registers or stack frame: stepping and jumping it never
// allocate.
type pcg struct{ hi, lo uint64 }

// lcgMap is the affine map s ↦ a·s + c on 128-bit LCG states; n steps of
// the stream are one such map.
type lcgMap struct{ ahi, alo, chi, clo uint64 }

// pcgStep is the one-step map: rand.PCG's multiplier and increment.
var pcgStep = lcgMap{2549297995355413924, 4865540595714422341, 6364136223846793005, 1442695040888963407}

// lcgSteps returns the map of n steps, composed from the 2^i-step maps of
// n's set bits in O(log n).
func lcgSteps(n uint64) lcgMap {
	r := lcgMap{alo: 1} // identity
	m := pcgStep
	for ; n != 0; n >>= 1 {
		if n&1 != 0 {
			r = m.then(r)
		}
		m = m.then(m)
	}
	return r
}

// stepMaps returns the j-step maps for j = 0..n, each one step past the
// last. The variate k steps on from state s is stepMaps(n)[k].apply(s).out()
// for any s, so a stream read through the table yields the same variates
// as one stepped by next, in any order and without reading the ones between.
func stepMaps(n int) []lcgMap {
	steps := make([]lcgMap, n+1)
	steps[0] = lcgMap{alo: 1}
	for j := 1; j <= n; j++ {
		steps[j] = pcgStep.then(steps[j-1])
	}
	return steps
}

// then returns the map that applies f and then m: s ↦ m.a·(f.a·s + f.c) + m.c.
func (m lcgMap) then(f lcgMap) lcgMap {
	ahi, alo := mul128(m.ahi, m.alo, f.ahi, f.alo)
	c := m.apply(pcg{f.chi, f.clo})
	return lcgMap{ahi, alo, c.hi, c.lo}
}

// apply maps state s.
func (m lcgMap) apply(s pcg) pcg {
	hi, lo := mul128(m.ahi, m.alo, s.hi, s.lo)
	lo, carry := bits.Add64(lo, m.clo, 0)
	return pcg{hi + m.chi + carry, lo}
}

// mul128 returns the low 128 bits of (ahi:alo)·(bhi:blo).
func mul128(ahi, alo, bhi, blo uint64) (hi, lo uint64) {
	hi, lo = bits.Mul64(alo, blo)
	hi += ahi*blo + alo*bhi
	return hi, lo
}

// step returns the state one step on.
func (s pcg) step() pcg {
	return pcgStep.apply(s)
}

// out is rand.PCG's DXSM output of state s.
func (s pcg) out() uint64 {
	const cheapMul = 0xda942042e4dd58b5
	h := (s.hi ^ s.hi>>32) * cheapMul
	return (h ^ h>>48) * (s.lo | 1)
}

// next advances p one step and returns the variate, as rand.PCG.Uint64.
func (p *pcg) next() uint64 {
	*p = p.step()
	return p.out()
}

// jump advances p by n steps, as n calls of next would, in O(log n).
func (p *pcg) jump(n uint64) {
	*p = lcgSteps(n).apply(*p)
}
