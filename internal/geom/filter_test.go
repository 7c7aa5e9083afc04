package geom

import (
	"math"
	"math/rand"
	"testing"
)

// dynamicBounds returns the dynamic bounds Orient2D(a, b, c), DiscSign(a,
// b, c) and InCircle(a, b, c, d) would take.
func dynamicBounds(a, b, c, d Point) (orient, disc, inCircle float64) {
	orient = orientBound(math.Abs((a.X-c.X)*(b.Y-c.Y)), math.Abs((a.Y-c.Y)*(b.X-c.X)))
	disc = discBound(math.Abs((c.X-a.X)*(c.X-b.X)), math.Abs((c.Y-a.Y)*(c.Y-b.Y)))
	adx, ady := a.X-d.X, a.Y-d.Y
	bdx, bdy := b.X-d.X, b.Y-d.Y
	cdx, cdy := c.X-d.X, c.Y-d.Y
	inCircle = inCircleBound(math.Abs(bdx*cdy), math.Abs(cdx*bdy), math.Abs(cdx*ady), math.Abs(adx*cdy), math.Abs(adx*bdy), math.Abs(bdx*ady),
		adx*adx+ady*ady, bdx*bdx+bdy*bdy, cdx*cdx+cdy*cdy)
	return orient, disc, inCircle
}

// boxFilter returns the filter of the bounding box of pts.
func boxFilter(pts ...Point) Filter {
	box := Rect{MinX: math.Inf(1), MinY: math.Inf(1), MaxX: math.Inf(-1), MaxY: math.Inf(-1)}
	for _, p := range pts {
		box = box.ExtendPoint(p)
	}
	return NewFilter(box)
}

// checkFilter holds f's three predicates on a, b, c and d, points of its
// box, to rational arithmetic, and its bounds to at least the dynamic
// bounds of the same points.
func checkFilter(t *testing.T, name string, f Filter, a, b, c, d Point) {
	t.Helper()
	orient, disc, inCircle := dynamicBounds(a, b, c, d)
	// A NaN dynamic bound (Inf·0 at overflow) decides nothing either.
	if orient > f.orient || disc > f.disc || inCircle > f.inCircle {
		t.Fatalf("%s: static bounds %g %g %g below the dynamic %g %g %g of %v %v %v %v", name, f.orient, f.disc, f.inCircle, orient, disc, inCircle, a, b, c, d)
	}
	if got, want := f.Orient2D(a, b, c), ratOrient(a, b, c); got != want {
		t.Fatalf("%s: Filter.Orient2D(%v, %v, %v) = %d, want %d", name, a, b, c, got, want)
	}
	if got, want := f.DiscSign(a, b, c), ratSign(a, b, c); got != want {
		t.Fatalf("%s: Filter.DiscSign(%v, %v, %v) = %d, want %d", name, a, b, c, got, want)
	}
	if got, want := f.InCircle(a, b, c, d), ratInCircle(a, b, c, d); got != want {
		t.Fatalf("%s: Filter.InCircle(%v, %v, %v, %v) = %d, want %d", name, a, b, c, d, got, want)
	}
}

// TestFilterMatchesRational holds the static filter's signs to rational
// arithmetic, and its bounds to at least the dynamic bounds, for points of
// the box it was made for: random points of wide, tall and square boxes
// (the filter must take the larger width), the box's corners and points on
// its edges (where the differences reach the width and the dynamic bound
// the static one), collinear and cocircular lattices translated by up to
// 1e9, points 1 ulp off a line or a circle, boxes near 1e77 and 1e150
// (where the bound overflows to +Inf and every call defers) and boxes of
// subnormal width.
func TestFilterMatchesRational(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	nudge := func(v float64) float64 {
		for k := rng.Intn(3); k > 0; k-- {
			v = math.Nextafter(v, math.Inf(1-2*rng.Intn(2)))
		}
		return v
	}
	n := 1500
	if testing.Short() {
		n = 400
	}
	accepted, tried := 0, 0
	for _, box := range []struct {
		name       string
		x0, y0     float64
		w, h       float64
		overflowed bool
	}{
		{"unit", 0, 0, 1, 1, false},
		{"wide", -3, 7, 1e4, 10, false},
		{"tall", 1e6, -1e6, 10, 1e4, false},
		{"offset-1e9", 1e9, 1e9, 1000, 700, false},
		{"near-1e77", 1e77, -1e77, 3e76, 5e76, false},
		{"square", -2, -2, 4, 4, false},
		{"near-1e150", 1e150, 1e150, 1e150, 2e149, true},
		{"subnormal", 0, 0, 0x1p-1060, 0x1p-1065, false},
		{"subnormal-offset", 1, 1, 0x1p-40, 0x1p-40, false},
	} {
		corners := []Point{{box.x0, box.y0}, {box.x0 + box.w, box.y0}, {box.x0, box.y0 + box.h}, {box.x0 + box.w, box.y0 + box.h}}
		f := boxFilter(corners...)
		if math.IsInf(f.inCircle, 1) != box.overflowed {
			t.Fatalf("%s: InCircle's bound is %g", box.name, f.inCircle)
		}
		in := func() Point {
			p := Point{box.x0 + rng.Float64()*box.w, box.y0 + rng.Float64()*box.h}
			switch rng.Intn(6) { // on an edge
			case 0:
				p.X = box.x0
			case 1:
				p.Y = box.y0 + box.h
			case 2:
				p = corners[rng.Intn(4)]
			}
			return Point{math.Min(p.X, box.x0+box.w), math.Min(p.Y, box.y0+box.h)}
		}
		for i := 0; i < n; i++ {
			a, b, c, d := in(), in(), in(), in()
			switch i % 4 {
			case 1: // c on the rounded line ab, then 1 ulp off
				s := rng.Float64()
				c = Point{nudge(a.X + s*(b.X-a.X)), nudge(a.Y + s*(b.Y-a.Y))}
			case 2: // d on the rounded circle through three points, then off
				cx, cy := box.x0+box.w/2, box.y0+box.h/2
				r := math.Min(box.w, box.h) / 2
				on := func() Point {
					th := rng.Float64() * 2 * math.Pi
					return Point{cx + r*math.Cos(th), cy + r*math.Sin(th)}
				}
				a, b, c, d = on(), on(), on(), on()
				d = Point{nudge(d.X), nudge(d.Y)}
			}
			g := boxFilter(append(corners, a, b, c, d)...)
			checkFilter(t, box.name, g, a, b, c, d)
			tried++
			if det := (a.X-c.X)*(b.Y-c.Y) - (a.Y-c.Y)*(b.X-c.X); math.Abs(det) > g.orient {
				accepted++
			}
		}
		// Four copies of one corner (at the origin too: the exact
		// predicates once rescaled all-zero input forever), then opposite
		// corners: every difference is a full width, and in a square box
		// every dynamic bound is the static one.
		for _, p := range []Point{corners[0], {}, {X: math.Copysign(0, -1)}} {
			checkFilter(t, box.name+"/copies", f, p, p, p, p)
		}
		for i, d := range corners {
			opp := corners[3-i]
			checkFilter(t, box.name+"/corners", f, opp, opp, opp, d)
			checkFilter(t, box.name+"/corners", f, d, opp, corners[i^1], corners[i^2])
		}
	}
	// About 70 % settle: the subnormal boxes' products underflow and every
	// fourth sample is collinear within an ulp.
	if 2*accepted < tried {
		t.Errorf("the static filter settled %d orientations of %d random ones, under half: the sample misses it", accepted, tried)
	}

	// Collinear and cocircular lattices, translated: the signs are known.
	for _, off := range []float64{0, 1e3, 1e6, 1e9} {
		tr := func(ps ...Point) []Point {
			out := make([]Point, len(ps))
			for i, p := range ps {
				out[i] = Point{p.X + off, p.Y + off}
			}
			return out
		}
		line := tr(Point{0, 0}, Point{3, 7}, Point{6, 14}, Point{9, 21})
		circle := tr(Point{5, 0}, Point{0, 5}, Point{-5, 0}, Point{3, 4}, Point{-4, -3}, Point{0, 0}, Point{4, 4})
		f := boxFilter(append(line, circle...)...)
		for i := 0; i+2 < len(line); i++ {
			if got := f.Orient2D(line[i], line[i+1], line[i+2]); got != 0 {
				t.Errorf("+%g: collinear lattice points turn %d", off, got)
			}
		}
		for _, d := range circle[3:] {
			checkFilter(t, "lattice", f, circle[0], circle[1], circle[2], d)
		}
		for _, p := range line {
			checkFilter(t, "lattice", f, line[0], line[3], p, circle[3])
		}
	}
}

// FuzzFilterMatchesRational holds the static filter, made from the four
// points' own bounding box, to rational arithmetic and to the dynamic
// bounds, on any finite coordinates.
func FuzzFilterMatchesRational(f *testing.F) {
	f.Add(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
	f.Add(0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0, 1.0)
	f.Add(5.0, 0.0, 0.0, 5.0, -5.0, 0.0, 3.0, 4.0)
	f.Add(1e9, 1e9, 1e9+3, 1e9+7, 1e9+6, 1e9+14, 1e9+9, 1e9+21)
	f.Add(1e77, 1e77, 1.5e77, 1e77, 1e77, 1.3e77, 1.2e77, 1.1e77)
	f.Add(1e150, 1e150, 2e150, 1e150, 1e150, 2e150, 2e150, 2e150)
	f.Add(5e-324, 0.0, 0.0, 1e-323, 2e-323, 5e-324, 1e-320, 0.0)
	f.Fuzz(func(t *testing.T, ax, ay, bx, by, cx, cy, dx, dy float64) {
		for _, v := range []float64{ax, ay, bx, by, cx, cy, dx, dy} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e300 {
				t.Skip()
			}
		}
		a, b, c, d := Point{ax, ay}, Point{bx, by}, Point{cx, cy}, Point{dx, dy}
		checkFilter(t, "fuzz", boxFilter(a, b, c, d), a, b, c, d)
	})
}
