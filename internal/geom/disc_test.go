package geom

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// ratSign is the oracle for DiscSign, by another formula: the sign of
// |x−m|² − |a−b|²/4 for the exact midpoint m, in rationals.
func ratSign(a, b, x Point) int {
	r := func(v float64) *big.Rat { return new(big.Rat).SetFloat64(v) }
	half := big.NewRat(1, 2)
	quarter := big.NewRat(1, 4)
	var s big.Rat
	for _, v := range [2][3]float64{{x.X, a.X, b.X}, {x.Y, a.Y, b.Y}} {
		m := new(big.Rat).Add(r(v[1]), r(v[2]))
		m.Mul(m, half)
		d := new(big.Rat).Sub(r(v[0]), m)
		e := new(big.Rat).Sub(r(v[1]), r(v[2]))
		s.Add(&s, d.Mul(d, d))
		s.Sub(&s, e.Mul(e, e).Mul(e, quarter))
	}
	return s.Sign()
}

// ratL1Sign is the oracle for L1DiscSign: |2x−a−b|₁ − |a−b|₁ in rationals.
func ratL1Sign(a, b, x Point) int {
	r := func(v float64) *big.Rat { return new(big.Rat).SetFloat64(v) }
	var s big.Rat
	for _, v := range [2][3]float64{{x.X, a.X, b.X}, {x.Y, a.Y, b.Y}} {
		l := new(big.Rat).Add(r(v[0]), r(v[0]))
		l.Sub(l, r(v[1])).Sub(l, r(v[2]))
		e := new(big.Rat).Sub(r(v[1]), r(v[2]))
		s.Add(&s, l.Abs(l))
		s.Sub(&s, e.Abs(e))
	}
	return s.Sign()
}

// discTriple is one (a, b, x) input with the signs it must have, or
// check = false when only the oracle knows them.
type discTriple struct {
	name       string
	a, b, x    Point
	check      bool
	want, l1   int
	translated bool
}

// discTriples returns the named inputs, each also translated by 1e6-1e9.
func discTriples() []discTriple {
	// Degenerate(160)'s two-set duplicates case: p = 48, q = 5 and p's
	// 1e-7 twin, point 11. The float d²−r² from the rounded midpoint is
	// +4.9e-5, and the twin is outside: a relative 1e-9 of r² (6.0e-5)
	// would have called it inside and dropped the pair.
	p := Point{5706.732760810226, 8624.914374478863}
	q := Point{6197.780885253661, 8622.267559414677}
	twin := Point{5706.732760710226, 8624.914374478863}
	base := []discTriple{
		{name: "recorded-twin", a: p, b: q, x: twin, check: true, want: 1, l1: 1},
		{name: "copy-of-a", a: p, b: q, x: p, check: true, want: 0, l1: 0},
		{name: "copy-of-b", a: p, b: q, x: q, check: true, want: 0, l1: 0},
		{name: "copy-tiny-pair", a: Point{7911, 3}, b: Point{7911.0000001, 3}, x: Point{7911, 3}, check: true, want: 0, l1: 0},
		{name: "midpoint", a: Point{0, 0}, b: Point{6, 8}, x: Point{3, 4}, check: true, want: -1, l1: -1},
		{name: "far", a: Point{0, 0}, b: Point{6, 8}, x: Point{100, -3}, check: true, want: 1, l1: 1},
	}
	// Lattice points on the circle with diameter (0,0)-(6,8): centre (3,4),
	// radius 5. Their L1 signs are the oracle's.
	for _, x := range []Point{{6, 0}, {0, 8}, {7, 7}, {-1, 7}, {7, 1}, {-1, 1}, {3, 9}, {3, -1}, {8, 4}, {-2, 4}} {
		base = append(base, discTriple{name: "lattice-circle", a: Point{0, 0}, b: Point{6, 8}, x: x, check: true, want: 0, l1: ratL1Sign(Point{0, 0}, Point{6, 8}, x)})
	}
	// Lattice points on the L1 ball of (0,0)-(4,2): centre (2,1), radius 3.
	for _, x := range []Point{{5, 1}, {-1, 1}, {2, 4}, {2, -2}, {3, 3}, {1, -1}, {0, 2}} {
		base = append(base, discTriple{name: "lattice-diamond", a: Point{0, 0}, b: Point{4, 2}, x: x, check: true, want: ratSign(Point{0, 0}, Point{4, 2}, x), l1: 0})
	}
	out := base
	for _, off := range []float64{1e6, 1e7, 1e8, 1e9} {
		for _, c := range base {
			c.a = Point{c.a.X + off, c.a.Y + off}
			c.b = Point{c.b.X + off, c.b.Y + off}
			c.x = Point{c.x.X + off, c.x.Y + off}
			// Integer lattices and exact copies keep their signs; a translated
			// twin rounds, so only the oracle knows its sign.
			c.check = c.check && (c.name != "recorded-twin" && c.name != "copy-tiny-pair" || c.x == c.a || c.x == c.b)
			c.translated = true
			out = append(out, c)
		}
	}
	return out
}

// TestDiscSignMatchesRational checks DiscSign and L1DiscSign against
// rational arithmetic on the recorded duplicate twin (outside its pair's
// disc), exact copies of an endpoint (on it), lattice points on the
// boundary, every one of them translated by 1e6-1e9, and random triples
// on and near the circle, where the float evaluation is just decided or
// just undecided — which checks its error bound.
func TestDiscSignMatchesRational(t *testing.T) {
	for _, c := range discTriples() {
		want, wantL1 := ratSign(c.a, c.b, c.x), ratL1Sign(c.a, c.b, c.x)
		if c.check && (want != c.want || wantL1 != c.l1) {
			t.Fatalf("%s %v %v %v: oracle says %d/%d, table %d/%d", c.name, c.a, c.b, c.x, want, wantL1, c.want, c.l1)
		}
		if got := DiscSign(c.a, c.b, c.x); got != want {
			t.Errorf("%s (translated %v): DiscSign(%v, %v, %v) = %d, want %d", c.name, c.translated, c.a, c.b, c.x, got, want)
		}
		if got := L1DiscSign(c.a, c.b, c.x); got != wantL1 {
			t.Errorf("%s (translated %v): L1DiscSign(%v, %v, %v) = %d, want %d", c.name, c.translated, c.a, c.b, c.x, got, wantL1)
		}
	}

	rng := rand.New(rand.NewSource(37))
	decided := 0
	for i := 0; i < 20000; i++ {
		off := []float64{0, 1e3, 1e6, 1e9}[i%4]
		scale := math.Pow(10, float64(rng.Intn(10)-5))
		a := Point{off + rng.Float64()*scale, off + rng.Float64()*scale}
		b := Point{off + rng.Float64()*scale, off + rng.Float64()*scale}
		c := EnclosingCircle(a, b)
		// A point on the rounded circle, nudged by a few ulps.
		th := rng.Float64() * 2 * math.Pi
		x := Point{c.Center.X + c.Radius*math.Cos(th), c.Center.Y + c.Radius*math.Sin(th)}
		for k := rng.Intn(5); k > 0; k-- {
			x.X = math.Nextafter(x.X, math.Inf(1-2*rng.Intn(2)))
		}
		if rng.Intn(8) == 0 {
			x = []Point{a, b, {a.X, b.Y}, {b.X, a.Y}}[rng.Intn(4)]
		}
		t1, t2 := (x.X-a.X)*(x.X-b.X), (x.Y-a.Y)*(x.Y-b.Y)
		if math.Abs(t1+t2) > discErrBound*(math.Abs(t1)+math.Abs(t2)) {
			decided++
		}
		if got, want := DiscSign(a, b, x), ratSign(a, b, x); got != want {
			t.Fatalf("DiscSign(%v, %v, %v) = %d, want %d", a, b, x, got, want)
		}
		if got, want := L1DiscSign(a, b, x), ratL1Sign(a, b, x); got != want {
			t.Fatalf("L1DiscSign(%v, %v, %v) = %d, want %d", a, b, x, got, want)
		}
	}
	t.Logf("%d of 20000 near-circle triples decided in float", decided)
	if decided < 1000 || decided > 19000 {
		t.Errorf("%d of 20000 near-circle triples decided in float: the sample misses the bound's edge", decided)
	}
}
