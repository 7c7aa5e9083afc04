// Package geom provides the computational-geometry substrate for the
// ring-constrained join: points, rectangles (MBRs), circles, the Ψ+/Ψ−
// half-plane pruning regions of Lemmas 1, 3 and 5, and the exact in-disc
// sign that decides every ring (DiscSign, L1DiscSign).
//
// All coordinates are Euclidean 2D float64. Experiments in the paper
// normalize coordinates to [0, 10000]²; the geometry here is agnostic to the
// domain: decisions are exact, and the float tests that prune a traversal
// are widened outward relative to the coordinates they round.
package geom

import "math"

// Point is a location in the 2D Euclidean plane.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between p and o.
func (p Point) Dist(o Point) float64 {
	return math.Hypot(p.X-o.X, p.Y-o.Y)
}

// Dist2 returns the squared Euclidean distance between p and o. It is the
// preferred comparison form throughout the library because it avoids the
// square root on hot paths.
func (p Point) Dist2(o Point) float64 {
	dx := p.X - o.X
	dy := p.Y - o.Y
	return dx*dx + dy*dy
}

// Mid returns the midpoint of the segment p–o, which is the center of the
// smallest circle enclosing p and o.
func (p Point) Mid(o Point) Point {
	return Point{(p.X + o.X) / 2, (p.Y + o.Y) / 2}
}

// Sub returns the vector p − o.
func (p Point) Sub(o Point) Point {
	return Point{p.X - o.X, p.Y - o.Y}
}

// Dot returns the dot product of p and o interpreted as vectors.
func (p Point) Dot(o Point) float64 {
	return p.X*o.X + p.Y*o.Y
}

// Equal reports whether p and o are the same point (exact comparison; callers
// that need tolerance should compare Dist2 against an epsilon).
func (p Point) Equal(o Point) bool {
	return p.X == o.X && p.Y == o.Y
}

// L1Dist returns the Manhattan (L1) distance between p and o. It supports the
// L1 generalization of the ring constraint discussed in the paper's future
// work (Section 6).
func (p Point) L1Dist(o Point) float64 {
	return math.Abs(p.X-o.X) + math.Abs(p.Y-o.Y)
}
