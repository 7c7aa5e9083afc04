package geom

// CoverTol is the relative tolerance used by the closed-circle containment
// predicate. A point at distance d from the circle center is considered
// covered when d² ≤ r²·(1+CoverTol). The tolerance absorbs the rounding in
// midpoint/radius construction so that the two defining points of an
// enclosing circle always test as lying on it, while points even marginally
// outside do not.
const CoverTol = 1e-9

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

// Covers reports whether x lies inside or on c (the closed disk), using the
// library-wide tolerance. This single predicate decides RCJ validity in
// every algorithm — brute force and index-based — so they agree exactly.
func (c Circle) Covers(x Point) bool {
	return c.Center.Dist2(x) <= c.Radius*c.Radius*(1+CoverTol)
}

// StrictlyInside reports whether x lies strictly inside c with a symmetric
// tolerance margin. Points on the boundary (within tolerance) are not
// strictly inside.
func (c Circle) StrictlyInside(x Point) bool {
	return c.Center.Dist2(x) < c.Radius*c.Radius*(1-CoverTol)
}

// IntersectsRect reports whether the closed disk c and rectangle r share at
// least one point. Used by the verification algorithm (Algorithm 3) to decide
// whether a subtree may contain a point covered by c.
func (c Circle) IntersectsRect(r Rect) bool {
	return r.MinDist2(c.Center) <= c.Radius*c.Radius*(1+CoverTol)
}

// ContainsRect reports whether the whole rectangle r lies inside the closed
// disk c, i.e. the corner farthest from the center is covered.
func (c Circle) ContainsRect(r Rect) bool {
	return r.MaxDist2(c.Center) <= c.Radius*c.Radius*(1+CoverTol)
}

// ContainsFace reports whether at least one face (side) of r lies entirely
// inside the closed disk c. By the MBR property every face of an R-tree MBR
// touches at least one indexed point, so a face inside the circle guarantees
// the subtree contains a point covered by c (Algorithm 3, case "entry with a
// face inside the circle") — the candidate pair can be rejected without
// descending into the subtree.
//
// A segment lies inside a disk iff both endpoints do (the disk is convex), so
// it suffices to test consecutive corner pairs.
func (c Circle) ContainsFace(r Rect) bool {
	corners := r.Corners()
	in := [4]bool{}
	for i, pt := range corners {
		in[i] = c.Covers(pt)
	}
	for i := 0; i < 4; i++ {
		if in[i] && in[(i+1)%4] {
			return true
		}
	}
	return false
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

// Covers reports whether x lies inside or on the closed L1 ball.
func (c L1Circle) Covers(x Point) bool {
	return c.Center.L1Dist(x) <= c.Radius*(1+CoverTol)
}

// IntersectsRect reports whether the closed L1 ball intersects r.
func (c L1Circle) IntersectsRect(r Rect) bool {
	return r.MinL1Dist(c.Center) <= c.Radius*(1+CoverTol)
}
