package core

import "math/bits"

// pcg is the state of a math/rand/v2 PCG stream held as a value: the
// 128-bit LCG state s ↦ a·s + c and, per step, the DXSM output of the new
// state. rand.NewPCG(hi, lo) starts the same stream, so a pcg{hi, lo} and
// a rand.PCG seeded alike yield the same variates. As a value it lives in
// the caller's registers or stack frame: stepping, filling and jumping it
// never allocate.
type pcg struct{ hi, lo uint64 }

// rand.PCG's multiplier and increment: the one-step map.
const (
	pcgMulHi = 2549297995355413924
	pcgMulLo = 4865540595714422341
	pcgIncHi = 6364136223846793005
	pcgIncLo = 1442695040888963407
)

// lcgMap is the affine map s ↦ a·s + c on 128-bit LCG states; n steps of
// the stream are one such map.
type lcgMap struct{ ahi, alo, chi, clo uint64 }

// lcgSteps returns the map of n steps, composed from the 2^i-step maps of
// n's set bits in O(log n).
func lcgSteps(n uint64) lcgMap {
	r := lcgMap{alo: 1} // identity
	m := lcgMap{pcgMulHi, pcgMulLo, pcgIncHi, pcgIncLo}
	for ; n != 0; n >>= 1 {
		if n&1 != 0 {
			r = m.then(r)
		}
		m = m.then(m)
	}
	return r
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
	return lcgMap{pcgMulHi, pcgMulLo, pcgIncHi, pcgIncLo}.apply(s)
}

// step2 returns the state two steps on, by the two-step map
// s ↦ a²·s + (a+1)·c; its constants are lcgSteps(2).
func (s pcg) step2() pcg {
	return lcgMap{1710491942223705148, 5953435361322512025, 5220163216168088568, 12402783752613479834}.apply(s)
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

// fill writes the next len(dst) variates into dst and advances p past
// them, as len(dst) calls of next would. Two lanes, one step apart, each
// advance by the two-step map, so their multiply chains overlap instead of
// each step waiting on the one before.
func (p *pcg) fill(dst []uint64) {
	if len(dst) == 0 {
		return
	}
	a := p.step()
	b := a.step()
	for len(dst) > 2 {
		dst[0], dst[1] = a.out(), b.out()
		dst = dst[2:]
		a, b = a.step2(), b.step2()
	}
	// One or two variates are left, from states a and b.
	dst[0] = a.out()
	if len(dst) == 2 {
		dst[1] = b.out()
		*p = b
	} else {
		*p = a
	}
}

// jump advances p by n steps, as n calls of next would, in O(log n).
func (p *pcg) jump(n uint64) {
	*p = lcgSteps(n).apply(*p)
}
