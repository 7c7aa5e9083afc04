package core

import (
	"math"

	"repro/internal/geom"
	"repro/internal/rtree"
)

// This file is the Manhattan-metric generalization of the ring-constrained
// join sketched in the paper's future work (Section 6). It adds no
// traversal: Options.Metric = MetricL1 makes the one filter (bulkFilter)
// prune with the quadrants below instead of Ψ− half-planes and measure pair
// distances with L1Dist, and the one verifier (verifyNode) decide with
// geom.L1DiscSign instead of geom.DiscSign. Batching (INJ, BIJ, OBJ), live
// lists, predicates, delivery and statistics are the Euclidean join's. The
// "ring" becomes the smallest L1 ball (a diamond) centred at the midpoint of
// p and q, and a pair qualifies when that ball covers no other point of
// P ∪ Q. A result is an ordinary Pair whose Circle holds the ball: Center
// the midpoint, Radius half the L1 distance, so the diameter every
// predicate reads is the Manhattan distance between the two points.
//
// The Euclidean half-plane pruning of Lemma 1 does not transfer verbatim,
// but a quadrant analogue does:
//
//	L1 quadrant lemma. Let p ∈ P have been discovered for query q. Any
//	point p' lying in the closed quadrant anchored at p and pointing away
//	from q — i.e. with p between p' and q in both coordinates — cannot
//	form an L1-RCJ pair with q.
//
//	Proof: if min(p'.x, q.x) ≤ p.x ≤ max(p'.x, q.x) and likewise in y, then
//	per coordinate |m.x − p.x| ≤ |p'.x − q.x|/2 for the midpoint m, so
//	‖m − p‖₁ ≤ ‖p' − q‖₁/2 = r: p lies inside the closed L1 ball of
//	<p', q>, invalidating the pair.
//
// There is no L1 twin of Lemma 5 here: an open quadrant anchored at a leaf
// sibling would be sound, but on the measured inputs the siblings'
// quadrants save a handful of node reads (4 335 against 4 336 on Fig. 13's
// LP pair), too few to pay for their own code and proof. So an L1 join is
// never seeded, and OBJ batches it as BIJ does.
//
// The lemma lifts to rectangles as Lemma 3 does: a rectangle inside a
// quadrant has every point below it inside too. A quadrant is kept as the
// box of floats it holds (l1Quadrant), so every test is an exact float
// comparison. The quadrant is only part of the exact L1 analogue of Ψ−
// (every p' whose ball with q holds p), so the filter admits more
// candidates than the Euclidean join — the verification step (against
// exact L1 balls) restores exactness.
//
// The filter's Euclidean shortcuts stay sound under L1 because ‖v‖₂ ≤ ‖v‖₁:
// a point or subtree whose Euclidean distance from every query point
// exceeds a Manhattan bound is beyond it in L1 too (the squared pre-test,
// the stop rule, rectDead), and a point beyond the bound prunes only points
// farther still (p between p' and q makes ‖p' − q‖₁ ≥ ‖p − q‖₁). The
// verifier's Euclidean band holds the L1 ball, which lies inside the disc of
// the same centre and radius, so the band and IntersectsRect only ever pass
// more points on to L1DiscSign; and the face rule holds because the open L1
// ball is convex, so a face whose two corners are strictly inside lies
// strictly inside, with the point the MBR property puts on it.

// l1Quadrant returns the closed quadrant anchored at p and pointing away
// from q as a box, unbounded (±Inf) away from p. A zero q−p component points
// the quadrant to +∞ on that axis, arbitrarily: both half-lines from p have
// p between them and q. The box's tests are plain float comparisons, exact.
func l1Quadrant(q, p geom.Point) geom.Rect {
	var r geom.Rect
	r.MinX, r.MaxX = halfLine(p.X, q.X)
	r.MinY, r.MaxY = halfLine(p.Y, q.Y)
	return r
}

// halfLine is one axis of l1Quadrant: the closed half-line from a pointing
// away from b.
func halfLine(a, b float64) (lo, hi float64) {
	if b > a {
		return math.Inf(-1), a
	}
	return a, math.Inf(1)
}

// l1Pruners is the quadrant set accumulated for one query point, the L1
// twin of geom.PrunerSet: a point is pruned when a quadrant contains it, a
// rectangle when a single quadrant contains all of it. Like PrunerSet's
// kernels, a successful probe moves its quadrant to the front: consecutive
// probes are spatially adjacent, and the set is a pure disjunction. The
// probes stay out of line, so bulkFilter's body — the Euclidean kernel's
// too — keeps its size.
type l1Pruners []geom.Rect

// add appends the quadrant of p, discovered for query q.
//
//go:noinline
func (ps *l1Pruners) add(q, p geom.Point) { *ps = append(*ps, l1Quadrant(q, p)) }

//go:noinline
func (ps l1Pruners) prunesPoint(x geom.Point) bool {
	for i := range ps {
		if ps[i].ContainsPoint(x) {
			ps[0], ps[i] = ps[i], ps[0]
			return true
		}
	}
	return false
}

//go:noinline
func (ps l1Pruners) prunesRect(r geom.Rect) bool {
	for i := range ps {
		if ps[i].ContainsRect(r) {
			ps[0], ps[i] = ps[i], ps[0]
			return true
		}
	}
	return false
}

// l1Ring is the Manhattan two-point ball in a Pair's Circle slot.
func l1Ring(p, q geom.Point) geom.Circle { return geom.Circle(geom.L1EnclosingCircle(p, q)) }

// BruteForceL1Pairs is the oracle: the L1-RCJ of two plain slices, decided
// by geom.L1DiscSign.
func BruteForceL1Pairs(ps, qs []rtree.PointEntry, selfJoin bool) []Pair {
	return bruteForce(ps, qs, selfJoin, geom.L1DiscSign, l1Ring)
}
