package geom

import (
	"cmp"
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
	bound := discBound(math.Abs(t1), math.Abs(t2))
	switch {
	case det > bound:
		return 1
	case -det > bound:
		return -1
	}
	return discExact(a, b, x)
}

// discBound is DiscSign's error bound for products of magnitudes t1 and t2.
func discBound(t1, t2 float64) float64 { return discErrBound*(t1+t2) + 0x1p-1020 }

func discExact(a, b, x Point) int {
	// Sharing a coordinate with an endpoint on each axis (an exact copy of
	// one, or a corner of the pair's bounding box) zeroes both products.
	if (x.X == a.X || x.X == b.X) && (x.Y == a.Y || x.Y == b.Y) {
		return 0
	}
	if ps := [...]Point{a, b, x}; scaleDown(ps[:], 500) {
		return DiscSign(ps[0], ps[1], ps[2])
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

// The two predicates of a Delaunay triangulation, in DiscSign's idiom: a
// float determinant behind Shewchuk's static bound for it, settled in
// rationals when the bound cannot decide. Each bound's absolute term covers
// products that underflow, weighted by the factors an underflowed term is
// later multiplied by, and is kept out of the subnormal range, where x86
// arithmetic is an order of magnitude slower. An overflow makes the float
// test NaN or ±Inf, which no comparison decides, so it goes to rationals.

// orientErrBound and inCircleErrBound are Shewchuk's ccwerrboundA and
// iccerrboundA.
const (
	orientErrBound   = (3 + 16*0x1p-53) * 0x1p-53
	inCircleErrBound = (10 + 96*0x1p-53) * 0x1p-53
)

// Orient2D returns the sign of (a−c)×(b−c): +1 when a, b, c turn
// counter-clockwise, −1 clockwise, 0 when they are collinear. It is exact.
func Orient2D(a, b, c Point) int {
	l := (a.X - c.X) * (b.Y - c.Y)
	r := (a.Y - c.Y) * (b.X - c.X)
	det := l - r
	bound := orientBound(math.Abs(l), math.Abs(r))
	switch {
	case det > bound:
		return 1
	case -det > bound:
		return -1
	}
	return orientExact(a, b, c)
}

// orientBound is Orient2D's error bound for products of magnitudes l and r.
func orientBound(l, r float64) float64 { return orientErrBound*(l+r) + 0x1p-1020 }

func orientExact(a, b, c Point) int {
	// A float difference has the exact difference's sign, so each product
	// does too; unless both have one nonzero sign, theirs decide. This
	// settles points on a common axis-parallel line (a clamped boundary)
	// without rationals.
	if sl, sr := fsign(a.X-c.X)*fsign(b.Y-c.Y), fsign(a.Y-c.Y)*fsign(b.X-c.X); sl != sr || sl == 0 {
		return cmp.Compare(sl, sr)
	}
	if ps := [...]Point{a, b, c}; scaleDown(ps[:], 500) {
		return Orient2D(ps[0], ps[1], ps[2])
	}
	l := new(big.Rat).Mul(ratDiff(a.X, c.X), ratDiff(b.Y, c.Y))
	return l.Sub(l, new(big.Rat).Mul(ratDiff(a.Y, c.Y), ratDiff(b.X, c.X))).Sign()
}

// InCircle returns the sign of d against the circle through a, b and c
// taken counter-clockwise: +1 when d is strictly inside, 0 on the circle,
// −1 outside (signs flip when a, b, c turn clockwise). It is exact.
func InCircle(a, b, c, d Point) int {
	adx, ady := a.X-d.X, a.Y-d.Y
	bdx, bdy := b.X-d.X, b.Y-d.Y
	cdx, cdy := c.X-d.X, c.Y-d.Y
	bc, cb := bdx*cdy, cdx*bdy
	ca, ac := cdx*ady, adx*cdy
	ab, ba := adx*bdy, bdx*ady
	al := adx*adx + ady*ady
	bl := bdx*bdx + bdy*bdy
	cl := cdx*cdx + cdy*cdy
	det := al*(bc-cb) + bl*(ca-ac) + cl*(ab-ba)
	bound := inCircleBound(math.Abs(bc), math.Abs(cb), math.Abs(ca), math.Abs(ac), math.Abs(ab), math.Abs(ba), al, bl, cl)
	switch {
	case det > bound:
		return 1
	case -det > bound:
		return -1
	}
	return inCircleExact(a, b, c, d)
}

// inCircleBound is InCircle's error bound for cross products of magnitudes
// bc … ba and lifts al, bl and cl.
func inCircleBound(bc, cb, ca, ac, ab, ba, al, bl, cl float64) float64 {
	cross := bc + cb + ca + ac + ab + ba
	perm := (bc+cb)*al + (ca+ac)*bl + (ab+ba)*cl
	return inCircleErrBound*perm + 0x1p-900*(al+bl+cl+cross) + 0x1p-1000
}

func inCircleExact(a, b, c, d Point) int {
	if ps := [...]Point{a, b, c, d}; scaleDown(ps[:], 250) {
		return InCircle(ps[0], ps[1], ps[2], ps[3])
	}
	var rows [3][3]*big.Rat
	for i, p := range [3]Point{a, b, c} {
		x, y := ratDiff(p.X, d.X), ratDiff(p.Y, d.Y)
		lift := new(big.Rat).Mul(x, x)
		rows[i] = [3]*big.Rat{x, y, lift.Add(lift, new(big.Rat).Mul(y, y))}
	}
	var det big.Rat
	for i := 0; i < 3; i++ {
		r1, r2 := rows[(i+1)%3], rows[(i+2)%3]
		m := new(big.Rat).Mul(r1[0], r2[1])
		m.Sub(m, new(big.Rat).Mul(r2[0], r1[1]))
		det.Add(&det, m.Mul(m, rows[i][2]))
	}
	return det.Sign()
}

// Far from the origin a float product overflows, and a filter that sees
// ±Inf or NaN decides nothing: past ~1e154 for DiscSign and Orient2D, past
// ~1e77 for InCircle, whose terms are of degree 4. Each predicate is
// homogeneous in its coordinates, so scaling all of them by one power of
// two keeps its sign, and is exact while no nonzero coordinate turns
// subnormal. Their rational fallbacks first scale the input below the
// magnitude at which the float filter overflows and run it again: below
// 2^500 a degree-2 term stays under 2^1003, below 2^250 a degree-4 one
// under 2^1008.

// scaleDown scales ps in place by one power of two so that every coordinate
// is below 2^top in magnitude. It reports false, and leaves ps alone, when
// they are all below it already (all zero included) or when scaling would
// make a nonzero coordinate subnormal.
func scaleDown(ps []Point, top int) bool {
	hi, lo := math.MinInt, math.MaxInt
	for _, p := range ps {
		for _, v := range [2]float64{p.X, p.Y} {
			if v != 0 {
				_, e := math.Frexp(v) // 2^(e-1) <= |v| < 2^e
				hi, lo = max(hi, e), min(lo, e)
			}
		}
	}
	if hi < lo {
		return false // every coordinate is zero
	}
	shift := hi - top
	if shift <= 0 || lo-shift < -1021 { // 2^-1022, the least normal, has e = -1021
		return false
	}
	for i, p := range ps {
		ps[i] = Point{math.Ldexp(p.X, -shift), math.Ldexp(p.Y, -shift)}
	}
	return true
}

// fsign returns the sign of v.
func fsign(v float64) int {
	switch {
	case v > 0:
		return 1
	case v < 0:
		return -1
	}
	return 0
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
