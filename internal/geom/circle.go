package geom

// Circle is a circle given by center and radius. For ring-constrained join
// pairs the circle is the smallest circle enclosing the two points, i.e. the
// circle whose diameter is the segment between them.
type Circle struct {
	Center Point
	Radius float64
}

// EnclosingCircle returns the smallest circle enclosing p and q: centered at
// their midpoint with radius half their distance.
func EnclosingCircle(p, q Point) Circle {
	return Circle{Center: p.Mid(q), Radius: p.Dist(q) / 2}
}

// Band is a ring's outward float test: its rounded centre and a squared
// radius R2 such that the float squared distance from Center to any point
// of the exact closed disc the ring was built from (EnclosingCircle of a
// pair) is at most R2. It only ever sends a point or a subtree on to the
// exact test, DiscSign on the pair's endpoints; it never decides.
type Band struct {
	Center Point
	R2     float64
}

// Band returns c's outward float test, R2 = reach(c)².
func (c Circle) Band() Band {
	w := reach(c.Center, c.Radius)
	return Band{Center: c.Center, R2: w * w}
}

// IntersectsRect reports whether r may hold a point of the ring. Used by
// the verification algorithm (Algorithm 3) to decide whether a subtree
// must be descended.
func (b Band) IntersectsRect(r Rect) bool {
	return r.MinDist2(b.Center) <= b.R2
}

// Covers reports whether x lies within c's Band.
//
// Deprecated: it is not a decision — DiscSign on the pair's endpoints is —
// and is kept only because the perf harness times it (ROADMAP item 12).
func (c Circle) Covers(x Point) bool {
	return c.Center.Dist2(x) <= c.Band().R2
}

// Diameter returns the diameter of c, the quantity the paper's tourist
// recommendation scenario sorts RCJ results by.
func (c Circle) Diameter() float64 {
	return 2 * c.Radius
}

// L1Circle is the Manhattan-metric analogue of Circle: the set of points
// within L1 distance Radius of Center, geometrically a diamond (a square
// rotated 45°). It supports the paper's future-work generalization of the
// ring constraint to the L1 metric.
type L1Circle struct {
	Center Point
	Radius float64
}

// L1EnclosingCircle returns the smallest L1 ball enclosing p and q that is
// centered at a point equidistant (in L1) from both: centered at the midpoint
// with radius half the L1 distance. The midpoint minimizes the maximum L1
// distance to p and q, mirroring the fairness property of the Euclidean
// construction.
func L1EnclosingCircle(p, q Point) L1Circle {
	return L1Circle{Center: p.Mid(q), Radius: p.L1Dist(q) / 2}
}

// IntersectsRect reports whether r may hold a point of the closed L1 ball
// c was built from, widened outward like Band.
func (c L1Circle) IntersectsRect(r Rect) bool {
	return r.MinL1Dist(c.Center) <= reach(c.Center, c.Radius)
}
