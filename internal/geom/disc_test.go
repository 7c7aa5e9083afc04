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

// hugeScale is 2^996 ≈ 6.7e299: lattice inputs scaled by it stay exact, so
// their signs stay known, and every product of two of them overflows.
var hugeScale = math.Ldexp(1, 996)

// mixedCoord draws a coordinate whose magnitude is one of 1e300, 1e150, 1,
// 1e-150 and 1e-300 (or zero), with a random sign: triples of them overflow
// the float filter, and some cannot be scaled into range without a
// coordinate turning subnormal.
func mixedCoord(rng *rand.Rand) float64 {
	mags := []float64{1e300, 1e150, 1, 1e-150, 1e-300, 0}
	return float64(1-2*rng.Intn(2)) * mags[rng.Intn(len(mags))] * (1 + rng.Float64())
}

// TestDiscSignHugeMatchesRational is TestDiscSignMatchesRational at ±1e300,
// where every float product overflows, and at mixed magnitudes: the named
// lattice inputs scaled by ±2^996, random triples on and near the circle of
// pairs ±1e300 wide, and random triples mixing 1e300 with 1e-300. The
// overflowing inputs are settled by the float filter on a power-of-two
// rescaling, which must decide most of them.
func TestDiscSignHugeMatchesRational(t *testing.T) {
	for _, c := range discTriples() {
		if c.translated {
			continue
		}
		for _, s := range []float64{hugeScale, -hugeScale} {
			a := Point{c.a.X * s, c.a.Y * s}
			b := Point{c.b.X * s, c.b.Y * s}
			x := Point{c.x.X * s, c.x.Y * s}
			want := ratSign(a, b, x)
			if c.check && want != c.want {
				t.Fatalf("%s ×%g: oracle says %d, table %d", c.name, s, want, c.want)
			}
			if got := DiscSign(a, b, x); got != want {
				t.Errorf("%s ×%g: DiscSign(%v, %v, %v) = %d, want %d", c.name, s, a, b, x, got, want)
			}
		}
	}
	// On the circle with diameter (−R, 0)-(R, 0): (0, R) is on it, and
	// (1e-300, R) is outside by 1e-600, which only exact arithmetic sees.
	const R = 1e300
	for _, c := range []struct {
		x    Point
		want int
	}{{Point{0, R}, 0}, {Point{1e-300, R}, 1}, {Point{0, -R}, 0}, {Point{1e-300, 0}, -1}, {Point{1, R}, 1}} {
		if got := DiscSign(Point{-R, 0}, Point{R, 0}, c.x); got != c.want {
			t.Errorf("DiscSign((−R, 0), (R, 0), %v) = %d, want %d", c.x, got, c.want)
		}
	}

	rng := rand.New(rand.NewSource(43))
	decided := 0
	for i := 0; i < 5000; i++ {
		scale := float64(1-2*(i%2)) * 1e300 * math.Pow(10, -float64(rng.Intn(10)))
		off := []float64{0, 0.5, -0.25}[i%3] * scale
		a := Point{off + rng.Float64()*scale, off + rng.Float64()*scale}
		b := Point{off + rng.Float64()*scale, off + rng.Float64()*scale}
		c := EnclosingCircle(a, b)
		th := rng.Float64() * 2 * math.Pi
		x := Point{c.Center.X + c.Radius*math.Cos(th), c.Center.Y + c.Radius*math.Sin(th)}
		for k := rng.Intn(5); k > 0; k-- {
			x.X = math.Nextafter(x.X, math.Inf(1-2*rng.Intn(2)))
		}
		if rng.Intn(8) == 0 {
			x = []Point{a, b, {a.X, b.Y}, {b.X, a.Y}}[rng.Intn(4)]
		}
		if ps := []Point{a, b, x}; scaleDown(ps, 500) {
			a, b, x := ps[0], ps[1], ps[2]
			t1, t2 := (x.X-a.X)*(x.X-b.X), (x.Y-a.Y)*(x.Y-b.Y)
			if math.Abs(t1+t2) > discErrBound*(math.Abs(t1)+math.Abs(t2)) {
				decided++
			}
		}
		if got, want := DiscSign(a, b, x), ratSign(a, b, x); got != want {
			t.Fatalf("DiscSign(%v, %v, %v) = %d, want %d", a, b, x, got, want)
		}
	}
	t.Logf("%d of 5000 near-circle triples at 1e300 decided in float after scaling", decided)
	if decided < 250 || decided > 4750 {
		t.Errorf("%d of 5000 near-circle triples at 1e300 decided in float after scaling: the sample misses the bound's edge", decided)
	}
	for i := 0; i < 5000; i++ {
		a := Point{mixedCoord(rng), mixedCoord(rng)}
		b := Point{mixedCoord(rng), mixedCoord(rng)}
		x := Point{mixedCoord(rng), mixedCoord(rng)}
		if rng.Intn(4) == 0 {
			x = Point{[]float64{a.X, b.X}[rng.Intn(2)], mixedCoord(rng)}
		}
		if got, want := DiscSign(a, b, x), ratSign(a, b, x); got != want {
			t.Fatalf("DiscSign(%v, %v, %v) = %d, want %d", a, b, x, got, want)
		}
	}
}

// ratDet is the determinant of a square rational matrix by fraction-exact
// Gaussian elimination: the oracle's formula for Orient2D and InCircle,
// untranslated, against their expansions about the last point.
func ratDet(m [][]*big.Rat) int {
	n, sign := len(m), 1
	for col := 0; col < n; col++ {
		piv := -1
		for r := col; r < n; r++ {
			if m[r][col].Sign() != 0 {
				piv = r
				break
			}
		}
		if piv < 0 {
			return 0
		}
		if piv != col {
			m[piv], m[col] = m[col], m[piv]
			sign = -sign
		}
		for r := col + 1; r < n; r++ {
			f := new(big.Rat).Quo(m[r][col], m[col][col])
			for c := col; c < n; c++ {
				m[r][c].Sub(m[r][c], new(big.Rat).Mul(f, m[col][c]))
			}
		}
	}
	s := sign
	for i := 0; i < n; i++ {
		s *= m[i][i].Sign()
	}
	return s
}

// ratOrient is the oracle for Orient2D: det [x y 1] over a, b, c.
func ratOrient(a, b, c Point) int {
	var m [][]*big.Rat
	for _, p := range []Point{a, b, c} {
		m = append(m, []*big.Rat{new(big.Rat).SetFloat64(p.X), new(big.Rat).SetFloat64(p.Y), big.NewRat(1, 1)})
	}
	return ratDet(m)
}

// ratInCircle is the oracle for InCircle: det [x y x²+y² 1] over a, b, c,
// d, which is positive when d is inside the counter-clockwise circle abc.
func ratInCircle(a, b, c, d Point) int {
	var m [][]*big.Rat
	for _, p := range []Point{a, b, c, d} {
		x, y := new(big.Rat).SetFloat64(p.X), new(big.Rat).SetFloat64(p.Y)
		l := new(big.Rat).Mul(x, x)
		l.Add(l, new(big.Rat).Mul(y, y))
		m = append(m, []*big.Rat{x, y, l, big.NewRat(1, 1)})
	}
	return ratDet(m)
}

// TestOrientIncircleMatchRational is TestDiscSignMatchesRational's twin
// for the triangulation's predicates: Orient2D and InCircle equal rational
// arithmetic on named collinear and cocircular lattice inputs, each also
// translated by 1e6-1e9 (integers stay exact, so their signs stay known),
// and on random inputs on and a few ulps off a line or circle, where the
// float evaluation is just decided or just undecided.
func TestOrientIncircleMatchRational(t *testing.T) {
	type orientCase struct {
		a, b, c Point
		want    int
	}
	type circleCase struct {
		a, b, c, d Point
		want       int
	}
	orients := []orientCase{
		{Point{0, 0}, Point{1, 0}, Point{0, 1}, 1},
		{Point{0, 0}, Point{0, 1}, Point{1, 0}, -1},
		{Point{0, 0}, Point{2, 2}, Point{1, 1}, 0},
		{Point{0, 0}, Point{2, 2}, Point{0, 0}, 0},
		{Point{3, 7}, Point{6, 14}, Point{9, 21}, 0},
	}
	// Lattice points on the circle of radius 5 about (0, 0), taken
	// counter-clockwise, against lattice points on, in and out of it.
	circles := []circleCase{
		{Point{5, 0}, Point{0, 5}, Point{-5, 0}, Point{3, 4}, 0},
		{Point{5, 0}, Point{0, 5}, Point{-5, 0}, Point{-4, -3}, 0},
		{Point{3, 4}, Point{-4, 3}, Point{0, -5}, Point{4, -3}, 0},
		{Point{5, 0}, Point{0, 5}, Point{-5, 0}, Point{0, 0}, 1},
		{Point{5, 0}, Point{0, 5}, Point{-5, 0}, Point{4, 4}, -1},
		{Point{5, 0}, Point{-5, 0}, Point{0, 5}, Point{0, 0}, -1}, // clockwise
		{Point{5, 0}, Point{0, 5}, Point{-5, 0}, Point{5, 0}, 0},
	}
	for _, off := range []float64{0, 1e6, 1e7, 1e8, 1e9} {
		tr := func(p Point) Point { return Point{p.X + off, p.Y + off} }
		for _, c := range orients {
			a, b, x := tr(c.a), tr(c.b), tr(c.c)
			if got, want := ratOrient(a, b, x), c.want; got != want {
				t.Fatalf("oracle: orient(%v, %v, %v) = %d, table %d", a, b, x, got, want)
			}
			if got := Orient2D(a, b, x); got != c.want {
				t.Errorf("Orient2D(%v, %v, %v) = %d, want %d", a, b, x, got, c.want)
			}
		}
		for _, c := range circles {
			a, b, x, d := tr(c.a), tr(c.b), tr(c.c), tr(c.d)
			if got := ratInCircle(a, b, x, d); got != c.want {
				t.Fatalf("oracle: incircle(%v, %v, %v, %v) = %d, table %d", a, b, x, d, got, c.want)
			}
			if got := InCircle(a, b, x, d); got != c.want {
				t.Errorf("InCircle(%v, %v, %v, %v) = %d, want %d", a, b, x, d, got, c.want)
			}
		}
	}

	rng := rand.New(rand.NewSource(41))
	nudge := func(v float64) float64 {
		for k := rng.Intn(5); k > 0; k-- {
			v = math.Nextafter(v, math.Inf(1-2*rng.Intn(2)))
		}
		return v
	}
	decidedO, decidedC := 0, 0
	for i := 0; i < 20000; i++ {
		off := []float64{0, 1e3, 1e6, 1e9}[i%4]
		scale := math.Pow(10, float64(rng.Intn(10)-5))
		pt := func() Point { return Point{off + rng.Float64()*scale, off + rng.Float64()*scale} }
		a, b := pt(), pt()
		// A point on the rounded line ab, nudged by a few ulps.
		s := rng.Float64()*3 - 1
		c := Point{nudge(a.X + s*(b.X-a.X)), nudge(a.Y + s*(b.Y-a.Y))}
		if rng.Intn(8) == 0 {
			c = []Point{a, b}[rng.Intn(2)]
		}
		l, r := (a.X-c.X)*(b.Y-c.Y), (a.Y-c.Y)*(b.X-c.X)
		if math.Abs(l-r) > orientErrBound*(math.Abs(l)+math.Abs(r)) {
			decidedO++
		}
		if got, want := Orient2D(a, b, c), ratOrient(a, b, c); got != want {
			t.Fatalf("Orient2D(%v, %v, %v) = %d, want %d", a, b, c, got, want)
		}

		// Four points on one rounded circle, the last nudged by a few ulps.
		centre, rad := pt(), scale*(0.1+rng.Float64())
		on := func() Point {
			th := rng.Float64() * 2 * math.Pi
			return Point{centre.X + rad*math.Cos(th), centre.Y + rad*math.Sin(th)}
		}
		ca, cb, cc, cd := on(), on(), on(), on()
		cd = Point{nudge(cd.X), nudge(cd.Y)}
		if rng.Intn(8) == 0 {
			cd = []Point{ca, cb, cc}[rng.Intn(3)]
		}
		if got, want := InCircle(ca, cb, cc, cd), ratInCircle(ca, cb, cc, cd); got != want {
			t.Fatalf("InCircle(%v, %v, %v, %v) = %d, want %d", ca, cb, cc, cd, got, want)
		}
		if inCircleFloatDecides(ca, cb, cc, cd) {
			decidedC++
		}
	}
	t.Logf("float decided %d of 20000 near-line orientations, %d of 20000 near-circle incircles", decidedO, decidedC)
	for _, d := range []int{decidedO, decidedC} {
		if d < 1000 || d > 19000 {
			t.Errorf("%d of 20000 near-degenerate inputs decided in float: the sample misses the bound's edge", d)
		}
	}
}

// TestOrientIncircleHugeMatchRational is TestOrientIncircleMatchRational at
// ±1e300 and at mixed magnitudes: the named lattice inputs scaled by
// ±2^996, random inputs on and a few ulps off a line or circle ±1e300
// across, collinear and cocircular inputs mixing 1e300 with 1e-300, and
// random mixed-magnitude inputs. Most near-degenerate inputs at 1e300 must
// be decided by the float filter on their power-of-two rescaling.
func TestOrientIncircleHugeMatchRational(t *testing.T) {
	lattice := func(s float64, ps ...Point) []Point {
		out := make([]Point, len(ps))
		for i, p := range ps {
			out[i] = Point{p.X * s, p.Y * s}
		}
		return out
	}
	for _, s := range []float64{hugeScale, -hugeScale} {
		for _, c := range [][]Point{
			lattice(s, Point{0, 0}, Point{1, 0}, Point{0, 1}),
			lattice(s, Point{0, 0}, Point{2, 2}, Point{1, 1}),
			lattice(s, Point{3, 7}, Point{6, 14}, Point{9, 21}),
			{{1e300, 1e300}, {-1e300, -1e300}, {1e-300, 1e-300}}, // on y = x
			{{1e300, 1e300}, {-1e300, -1e300}, {1e-300, 0}},
			{{1e300, 2e300}, {3, 6}, {1e-300, 2e-300}},
		} {
			if got, want := Orient2D(c[0], c[1], c[2]), ratOrient(c[0], c[1], c[2]); got != want {
				t.Errorf("Orient2D(%v, %v, %v) = %d, want %d", c[0], c[1], c[2], got, want)
			}
		}
		for _, c := range [][]Point{
			lattice(s, Point{5, 0}, Point{0, 5}, Point{-5, 0}, Point{3, 4}),
			lattice(s, Point{3, 4}, Point{-4, 3}, Point{0, -5}, Point{4, -3}),
			lattice(s, Point{5, 0}, Point{0, 5}, Point{-5, 0}, Point{0, 0}),
			lattice(s, Point{5, 0}, Point{0, 5}, Point{-5, 0}, Point{4, 4}),
			lattice(s, Point{5, 0}, Point{0, 5}, Point{-5, 0}, Point{5, 0}),
			append(lattice(s, Point{5, 0}, Point{0, 5}, Point{-5, 0}), Point{1e-300, 0}),
			append(lattice(s, Point{5, 0}, Point{0, 5}, Point{-5, 0}), Point{1, 1}),
		} {
			if got, want := InCircle(c[0], c[1], c[2], c[3]), ratInCircle(c[0], c[1], c[2], c[3]); got != want {
				t.Errorf("InCircle(%v, %v, %v, %v) = %d, want %d", c[0], c[1], c[2], c[3], got, want)
			}
		}
	}

	rng := rand.New(rand.NewSource(47))
	nudge := func(v float64) float64 {
		for k := rng.Intn(5); k > 0; k-- {
			v = math.Nextafter(v, math.Inf(1-2*rng.Intn(2)))
		}
		return v
	}
	const n = 2000
	decidedO, decidedC := 0, 0
	for i := 0; i < n; i++ {
		scale := float64(1-2*(i%2)) * 1e300 * math.Pow(10, -float64(rng.Intn(10)))
		off := []float64{0, 0.5, -0.25}[i%3] * scale
		pt := func() Point { return Point{off + rng.Float64()*scale, off + rng.Float64()*scale} }
		a, b := pt(), pt()
		s := rng.Float64()*3 - 1
		c := Point{nudge(a.X + s*(b.X-a.X)), nudge(a.Y + s*(b.Y-a.Y))}
		if rng.Intn(8) == 0 {
			c = []Point{a, b}[rng.Intn(2)]
		}
		if got, want := Orient2D(a, b, c), ratOrient(a, b, c); got != want {
			t.Fatalf("Orient2D(%v, %v, %v) = %d, want %d", a, b, c, got, want)
		}
		if ps := []Point{a, b, c}; scaleDown(ps, 500) {
			a, b, c := ps[0], ps[1], ps[2]
			l, r := (a.X-c.X)*(b.Y-c.Y), (a.Y-c.Y)*(b.X-c.X)
			if math.Abs(l-r) > orientErrBound*(math.Abs(l)+math.Abs(r)) {
				decidedO++
			}
		}

		centre, rad := pt(), math.Abs(scale)*(0.1+rng.Float64())/4
		on := func() Point {
			th := rng.Float64() * 2 * math.Pi
			return Point{centre.X + rad*math.Cos(th), centre.Y + rad*math.Sin(th)}
		}
		ca, cb, cc, cd := on(), on(), on(), on()
		cd = Point{nudge(cd.X), nudge(cd.Y)}
		if rng.Intn(8) == 0 {
			cd = []Point{ca, cb, cc}[rng.Intn(3)]
		}
		if got, want := InCircle(ca, cb, cc, cd), ratInCircle(ca, cb, cc, cd); got != want {
			t.Fatalf("InCircle(%v, %v, %v, %v) = %d, want %d", ca, cb, cc, cd, got, want)
		}
		if ps := []Point{ca, cb, cc, cd}; scaleDown(ps, 250) && inCircleFloatDecides(ps[0], ps[1], ps[2], ps[3]) {
			decidedC++
		}
	}
	t.Logf("float decided %d of %d near-line orientations, %d of %d near-circle incircles at 1e300 after scaling", decidedO, n, decidedC, n)
	for _, d := range []int{decidedO, decidedC} {
		if d < n/20 || d > n-n/20 {
			t.Errorf("%d of %d near-degenerate inputs at 1e300 decided in float after scaling: the sample misses the bound's edge", d, n)
		}
	}
	for i := 0; i < 1000; i++ {
		p := func() Point { return Point{mixedCoord(rng), mixedCoord(rng)} }
		a, b, c, d := p(), p(), p(), p()
		if got, want := Orient2D(a, b, c), ratOrient(a, b, c); got != want {
			t.Fatalf("Orient2D(%v, %v, %v) = %d, want %d", a, b, c, got, want)
		}
		if got, want := InCircle(a, b, c, d), ratInCircle(a, b, c, d); got != want {
			t.Fatalf("InCircle(%v, %v, %v, %v) = %d, want %d", a, b, c, d, got, want)
		}
	}
}

// inCircleFloatDecides reports whether InCircle's float filter settles the
// sign on its own.
func inCircleFloatDecides(a, b, c, d Point) bool {
	adx, ady := a.X-d.X, a.Y-d.Y
	bdx, bdy := b.X-d.X, b.Y-d.Y
	cdx, cdy := c.X-d.X, c.Y-d.Y
	al, bl, cl := adx*adx+ady*ady, bdx*bdx+bdy*bdy, cdx*cdx+cdy*cdy
	det := al*(bdx*cdy-cdx*bdy) + bl*(cdx*ady-adx*cdy) + cl*(adx*bdy-bdx*ady)
	perm := (math.Abs(bdx*cdy)+math.Abs(cdx*bdy))*al + (math.Abs(cdx*ady)+math.Abs(adx*cdy))*bl + (math.Abs(adx*bdy)+math.Abs(bdx*ady))*cl
	return math.Abs(det) > inCircleErrBound*perm
}
