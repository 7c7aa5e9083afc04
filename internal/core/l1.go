package core

import (
	"math"

	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// This file is the Manhattan-metric generalization of the ring-constrained
// join sketched in the paper's future work (Section 6), as one more pair of
// kernels on the one executor: Options.Metric = MetricL1 makes joinBatch
// call the quadrant filter below and verifyAndEmit the ball verifier below,
// and nothing else changes — outer loop, batch builder, parallel workers,
// predicates, delivery and statistics are the Euclidean join's. The "ring"
// becomes the smallest L1 ball (a diamond) centered at the midpoint of p and
// q, and a pair qualifies when that ball covers no other point of P ∪ Q. A
// result is an ordinary Pair whose Circle holds the ball: Center the
// midpoint, Radius half the L1 distance, so the diameter every predicate
// reads is the Manhattan distance between the two points.
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
// The quadrant is a subset of the Euclidean Ψ− region's analogue, so the
// filter admits more candidates than the Euclidean join — the verification
// step (against exact L1 balls) restores exactness.

// l1Pruner is the quadrant pruning region derived from query q and
// discovered point p.
type l1Pruner struct {
	p geom.Point
	// sx, sy ∈ {−1, +1}: the quadrant direction away from q per axis. A
	// zero q−p component makes any p' on that axis side qualify, handled by
	// the closed comparisons below with s = +1 chosen arbitrarily — both
	// closed half-lines contain the boundary value p.
	sx, sy float64
}

func newL1Pruner(q, p geom.Point) l1Pruner {
	pr := l1Pruner{p: p, sx: 1, sy: 1}
	if q.X > p.X {
		pr.sx = -1
	}
	if q.Y > p.Y {
		pr.sy = -1
	}
	return pr
}

// prunesPoint reports whether x lies in the quadrant (p between x and q on
// both axes).
func (pr l1Pruner) prunesPoint(x geom.Point) bool {
	return (x.X-pr.p.X)*pr.sx >= 0 && (x.Y-pr.p.Y)*pr.sy >= 0
}

// prunesRect reports whether the whole rectangle lies in the quadrant.
func (pr l1Pruner) prunesRect(r geom.Rect) bool {
	// The rect is inside the closed quadrant iff its extreme corner toward
	// q still qualifies.
	x := r.MaxX
	if pr.sx > 0 {
		x = r.MinX
	}
	y := r.MaxY
	if pr.sy > 0 {
		y = r.MinY
	}
	return pr.prunesPoint(geom.Point{X: x, Y: y})
}

// l1Pruners is the quadrant set accumulated for one query point.
type l1Pruners []l1Pruner

func (ps l1Pruners) prunesPoint(x geom.Point) bool {
	for _, pr := range ps {
		if pr.prunesPoint(x) {
			return true
		}
	}
	return false
}

func (ps l1Pruners) prunesRect(r geom.Rect) bool {
	for _, pr := range ps {
		if pr.prunesRect(r) {
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

// filterL1 is the Manhattan pruner kernel of the filter step — an index
// nested loop like INJ's, one query point per call, feeding the same batch
// builder, verifier dispatch and sinks as bulkFilter. It walks TP in
// ascending L1 distance from q, keeping points not pruned by any quadrant
// of an earlier discovery. The query predicates push down as in the
// Euclidean filter: the traversal ends at the diameter bound (the heap key
// IS the pair's L1 diameter), and a point the predicates exclude still
// installs its pruner. batch is the one query point, as a slice of the
// outer leaf; the returned slice and the pruner set are joiner scratch,
// valid until the next filter call.
func (j *joiner) filterL1(batch []rtree.PointEntry) ([]bulkQuery, error) {
	if j.tp.Root() == storage.InvalidPageID {
		return nil, nil
	}
	q := batch[0]
	queries := j.resetQueries(batch, false)
	cands := queries[0].cands
	pruners := j.l1Pruners[:0]
	h := &j.fheap
	h.reset()
	h.pushNode(0, j.tp.Root(), geom.EmptyRect(), liveSpan{})
	for len(h.keys) > 0 {
		k := h.pop() // dist2 holds the plain L1 distance here
		j.stats.FilterHeapPops++
		if bound := j.maxPairDiameter(); !math.IsInf(bound, 1) && k.dist2 > bound*boundSlack {
			// Ascending pop order: everything still queued is beyond the
			// bound too. Credit the subtrees never read to the pushdown.
			for _, k := range append(h.keys, k) {
				if !k.isPoint {
					j.stats.NodesPruned++
				}
			}
			break
		}
		if k.isPoint {
			p := h.points[k.idx].point
			if j.opts.SelfJoin && p.ID == q.ID {
				continue
			}
			if pruners.prunesPoint(p.P) {
				continue
			}
			if j.admitPairDist(k.dist2, q, p) {
				cands = append(cands, p)
			}
			// An excluded point still prunes, as in the Euclidean filter.
			if !p.P.Equal(q.P) {
				pruners = append(pruners, newL1Pruner(q.P, p.P))
				j.l1Pruners = pruners
			}
			continue
		}
		item := h.nodes[k.idx]
		if !item.rect.IsEmpty() && pruners.prunesRect(item.rect) {
			continue
		}
		if err := j.ctxErr(); err != nil {
			return nil, err
		}
		n, err := j.tp.ReadNode(item.page)
		if err != nil {
			return nil, err
		}
		if n.Leaf {
			xs, ys := n.Xs, n.Ys
			for i, id := range n.IDs {
				p := geom.Point{X: xs[i], Y: ys[i]}
				h.pushPoint(q.P.L1Dist(p), rtree.PointEntry{P: p, ID: id}, liveSpan{})
			}
		} else {
			for _, e := range n.Children {
				h.pushNode(e.MBR.MinL1Dist(q.P), e.Child, e.MBR, liveSpan{})
			}
		}
	}
	queries[0].cands = cands
	return queries, nil
}

// verifyL1 is the verification step under the Manhattan metric: each alive
// candidate's L1 ball is range-searched in t, and the candidate dies at the
// first covered point other than its own endpoints.
func (j *joiner) verifyL1(t SpatialIndex, cands []*candidate, s side) error {
	for _, c := range cands {
		if !c.alive {
			continue
		}
		ex1, ex2 := j.excludedIDs(c, s)
		hit, err := j.anyInL1Ball(t, t.Root(), &c.pair, ex1, ex2)
		if err != nil {
			return err
		}
		c.alive = !hit
	}
	return nil
}

// anyInL1Ball reports whether the subtree at id holds a point other than
// ex1 and ex2 in the pair's closed L1 ball: IntersectsRect descends
// outward, geom.L1DiscSign decides.
func (j *joiner) anyInL1Ball(t SpatialIndex, id storage.PageID, pr *Pair, ex1, ex2 int64) (bool, error) {
	if id == storage.InvalidPageID {
		return false, nil
	}
	if err := j.ctxErr(); err != nil {
		return false, err
	}
	n, err := t.ReadNode(id)
	if err != nil {
		return false, err
	}
	j.stats.VerifiedNodes++
	if n.Leaf {
		xs, ys := n.Xs, n.Ys
		for i, eid := range n.IDs {
			if eid != ex1 && eid != ex2 && geom.L1DiscSign(pr.P.P, pr.Q.P, geom.Point{X: xs[i], Y: ys[i]}) <= 0 {
				return true, nil
			}
		}
		return false, nil
	}
	for _, e := range n.Children {
		if geom.L1Circle(pr.Circle).IntersectsRect(e.MBR) {
			hit, err := j.anyInL1Ball(t, e.Child, pr, ex1, ex2)
			if err != nil || hit {
				return hit, err
			}
		}
	}
	return false, nil
}
