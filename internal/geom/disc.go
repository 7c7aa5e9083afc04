package geom

import (
	"math"
	"math/big"
)

// This file holds the one predicate that decides a ring. By Thales, x is in
// the closed disc with diameter ab iff (x−a)·(x−b) ≤ 0: a degree-2
// polynomial in the coordinates, with no midpoint and no square root. Its
// sign is evaluated in float64 behind a static error bound and, when the
// bound cannot settle it, in rationals (Shewchuk's filter-then-exact scheme,
// DCG 1997). Every ring decision of the join is a sign of this polynomial or
// of its L1 twin, so an answer is a function of the float64 coordinates
// alone: an exact copy of an endpoint is on the disc, and a point 1e-7 from
// one is wherever its coordinates put it. Coordinates must be finite.

// discErrBound is Shewchuk's static bound (his ccwerrboundA) for a sum of
// two products of rounded differences: the float sum is within
// discErrBound·(|t1|+|t2|) of the exact one, t1 and t2 the float products.
const discErrBound = (3 + 16*0x1p-53) * 0x1p-53

// DiscSign returns the sign of (x−a)·(x−b): −1 when x is strictly inside
// the closed disc with diameter ab, 0 on its circle (an endpoint, or an
// exact copy of one, included), +1 outside. It is exact; the bound's
// absolute term covers products that underflow.
func DiscSign(a, b, x Point) int {
	t1 := (x.X - a.X) * (x.X - b.X)
	t2 := (x.Y - a.Y) * (x.Y - b.Y)
	det := t1 + t2
	bound := discErrBound*(math.Abs(t1)+math.Abs(t2)) + 0x1p-1020
	switch {
	case det > bound:
		return 1
	case -det > bound:
		return -1
	}
	// Sharing a coordinate with an endpoint on each axis (an exact copy of
	// one, or a corner of the pair's bounding box) zeroes both products.
	if (x.X == a.X || x.X == b.X) && (x.Y == a.Y || x.Y == b.Y) {
		return 0
	}
	t := new(big.Rat).Mul(ratDiff(x.X, a.X), ratDiff(x.X, b.X))
	return t.Add(t, new(big.Rat).Mul(ratDiff(x.Y, a.Y), ratDiff(x.Y, b.Y))).Sign()
}

// L1DiscSign is DiscSign's Manhattan twin: the sign of |2x−a−b|₁ − |a−b|₁,
// −1 strictly inside the smallest L1 ball of a and b centred at their
// midpoint, 0 on its boundary, +1 outside. It is exact: each of the float
// evaluation's seven roundings is relative to a sum of input magnitudes,
// which the bound's 16u·(2|x|+|a|+|b|)₁ dominates.
func L1DiscSign(a, b, x Point) int {
	l := math.Abs(2*x.X-(a.X+b.X)) + math.Abs(2*x.Y-(a.Y+b.Y))
	det := l - (math.Abs(a.X-b.X) + math.Abs(a.Y-b.Y))
	bound := 0x1p-49 * (2*math.Abs(x.X) + math.Abs(a.X) + math.Abs(b.X) + 2*math.Abs(x.Y) + math.Abs(a.Y) + math.Abs(b.Y))
	switch {
	case det > bound:
		return 1
	case -det > bound:
		return -1
	}
	if x == a || x == b {
		return 0
	}
	var s big.Rat
	for _, v := range [2][3]float64{{x.X, a.X, b.X}, {x.Y, a.Y, b.Y}} {
		l := ratDiff(v[0], v[1]) // 2x−a−b = (x−a) + (x−b)
		l.Add(l, ratDiff(v[0], v[2]))
		r := ratDiff(v[1], v[2])
		s.Add(&s, l.Abs(l))
		s.Sub(&s, r.Abs(r))
	}
	return s.Sign()
}

// ratDiff returns v − w exactly.
func ratDiff(v, w float64) *big.Rat {
	d := new(big.Rat).SetFloat64(v)
	return d.Sub(d, new(big.Rat).SetFloat64(w))
}

// reach widens a ring's radius r about its rounded centre c outward: the
// float distance from c to any point of the exact ring (the closed disc or
// L1 ball of the pair c and r were rounded from) is at most reach. The
// relative term covers the radius's rounding and the distance's own, the
// term in |c| the midpoint's, which is relative to the coordinates (a
// 1e-7-wide pair near 10⁴ has r² ≈ 2.5e-15 while its midpoint rounds by
// ~1e-12), and the absolute term keeps the square normal. Each is orders of
// magnitude above the error it covers.
func reach(c Point, r float64) float64 {
	return r + 0x1p-40*(r+math.Abs(c.X)+math.Abs(c.Y)) + 0x1p-500
}
