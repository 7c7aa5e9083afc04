package core

import (
	"context"

	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// This file implements the Manhattan-metric generalization of the
// ring-constrained join sketched in the paper's future work (Section 6):
// the "ring" becomes the smallest L1 ball (a diamond) centered at the
// midpoint of p and q, and a pair qualifies when that ball covers no other
// point of P ∪ Q.
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

// L1Pair is one Manhattan-metric RCJ result.
type L1Pair struct {
	P, Q rtree.PointEntry
	Ball geom.L1Circle
}

// JoinL1 computes the L1 (Manhattan) ring-constrained join of the pointsets
// indexed by tq and tp using an index-nested-loop with quadrant pruning and
// exact L1-ball verification. opts supports SelfJoin and Collect/OnPair
// semantics; the Algorithm field is ignored (one strategy is provided).
func JoinL1(tq, tp SpatialIndex, opts Options) ([]L1Pair, Stats, error) {
	return JoinL1Context(context.Background(), tq, tp, opts)
}

// JoinL1Context is JoinL1 under a context, aborting promptly with ctx.Err()
// on cancellation.
func JoinL1Context(ctx context.Context, tq, tp SpatialIndex, opts Options) ([]L1Pair, Stats, error) {
	j := &l1Joiner{tq: tq, tp: tp, opts: opts, ctx: ctx}
	_, err := rtree.VisitLeaves(tq, nil, func(_ storage.PageID, n *rtree.Node) error {
		for i := 0; i < n.NumPoints(); i++ {
			q := n.EntryAt(i)
			if err := ctxDone(j.ctx); err != nil {
				return err
			}
			if err := j.joinOne(q); err != nil {
				return err
			}
		}
		return nil
	})
	return j.out, j.stats, err
}

// BruteForceL1Pairs is the oracle: the L1-RCJ of two plain slices.
func BruteForceL1Pairs(ps, qs []rtree.PointEntry, selfJoin bool) []L1Pair {
	var out []L1Pair
	for _, q := range qs {
		for _, p := range ps {
			if selfJoin && p.ID >= q.ID {
				continue
			}
			b := geom.L1EnclosingCircle(p.P, q.P)
			valid := true
			for _, r := range ps {
				if r.ID != p.ID && (!selfJoin || r.ID != q.ID) && b.Covers(r.P) {
					valid = false
					break
				}
			}
			if valid {
				for _, r := range qs {
					if r.ID != q.ID && (!selfJoin || r.ID != p.ID) && b.Covers(r.P) {
						valid = false
						break
					}
				}
			}
			if valid {
				out = append(out, L1Pair{P: p, Q: q, Ball: b})
			}
		}
	}
	return out
}

type l1Joiner struct {
	tq, tp SpatialIndex
	opts   Options
	ctx    context.Context
	stats  Stats
	out    []L1Pair
}

func (j *l1Joiner) joinOne(q rtree.PointEntry) error {
	cands, err := j.filter(q)
	if err != nil {
		return err
	}
	j.stats.Candidates += int64(len(cands))
	for _, p := range cands {
		b := geom.L1EnclosingCircle(p.P, q.P)
		valid, err := j.verify(q, p, b)
		if err != nil {
			return err
		}
		if !valid {
			continue
		}
		if j.opts.SelfJoin && p.ID >= q.ID {
			continue
		}
		j.stats.Results++
		if j.opts.Collect {
			j.out = append(j.out, L1Pair{P: p, Q: q, Ball: b})
		}
	}
	return nil
}

// filter walks TP in ascending L1 distance from q, keeping points not
// pruned by any quadrant of an earlier candidate.
func (j *l1Joiner) filter(q rtree.PointEntry) ([]rtree.PointEntry, error) {
	if j.tp.Root() == storage.InvalidPageID {
		return nil, nil
	}
	var (
		pruners []l1Pruner
		cands   []rtree.PointEntry
		h       filterHeap
	)
	h.push(filterItem{dist2: 0, page: j.tp.Root(), rect: geom.EmptyRect()})
	for len(h) > 0 {
		item := h.pop()
		j.stats.FilterHeapPops++
		if item.isPoint {
			if j.opts.SelfJoin && item.point.ID == q.ID {
				continue
			}
			pruned := false
			for _, pr := range pruners {
				if pr.prunesPoint(item.point.P) {
					pruned = true
					break
				}
			}
			if pruned {
				continue
			}
			cands = append(cands, item.point)
			if !item.point.P.Equal(q.P) {
				pruners = append(pruners, newL1Pruner(q.P, item.point.P))
			}
			continue
		}
		if !item.rect.IsEmpty() {
			pruned := false
			for _, pr := range pruners {
				if pr.prunesRect(item.rect) {
					pruned = true
					break
				}
			}
			if pruned {
				continue
			}
		}
		n, err := j.tp.ReadNode(item.page)
		if err != nil {
			return nil, err
		}
		if n.Leaf {
			xs, ys := n.Xs, n.Ys
			for i, id := range n.IDs {
				p := geom.Point{X: xs[i], Y: ys[i]}
				h.push(filterItem{dist2: q.P.L1Dist(p), isPoint: true, point: rtree.PointEntry{P: p, ID: id}})
			}
		} else {
			for _, e := range n.Children {
				h.push(filterItem{dist2: rectMinL1(e.MBR, q.P), page: e.Child, rect: e.MBR})
			}
		}
	}
	return cands, nil
}

// verify checks the L1 ball against both trees with range descent.
func (j *l1Joiner) verify(q, p rtree.PointEntry, b geom.L1Circle) (bool, error) {
	exQ, exP := q.ID, p.ID
	if j.opts.SelfJoin || j.tq == j.tp {
		hit, err := j.anyInBall(j.tq, b, exQ, exP)
		return !hit, err
	}
	hit, err := j.anyInBall(j.tq, b, exQ, exQ)
	if err != nil || hit {
		return false, err
	}
	hit, err = j.anyInBall(j.tp, b, exP, exP)
	return !hit, err
}

func (j *l1Joiner) anyInBall(t SpatialIndex, b geom.L1Circle, ex1, ex2 int64) (bool, error) {
	return j.anyRec(t, t.Root(), b, ex1, ex2)
}

func (j *l1Joiner) anyRec(t SpatialIndex, id storage.PageID, b geom.L1Circle, ex1, ex2 int64) (bool, error) {
	if id == storage.InvalidPageID {
		return false, nil
	}
	n, err := t.ReadNode(id)
	if err != nil {
		return false, err
	}
	j.stats.VerifiedNodes++
	if n.Leaf {
		xs, ys := n.Xs, n.Ys
		for i, eid := range n.IDs {
			if eid != ex1 && eid != ex2 && b.Covers(geom.Point{X: xs[i], Y: ys[i]}) {
				return true, nil
			}
		}
		return false, nil
	}
	for _, e := range n.Children {
		if b.IntersectsRect(e.MBR) {
			hit, err := j.anyRec(t, e.Child, b, ex1, ex2)
			if err != nil || hit {
				return hit, err
			}
		}
	}
	return false, nil
}

// rectMinL1 returns the minimum L1 distance from p to rectangle r.
func rectMinL1(r geom.Rect, p geom.Point) float64 {
	var dx, dy float64
	switch {
	case p.X < r.MinX:
		dx = r.MinX - p.X
	case p.X > r.MaxX:
		dx = p.X - r.MaxX
	}
	switch {
	case p.Y < r.MinY:
		dy = r.MinY - p.Y
	case p.Y > r.MaxY:
		dy = p.Y - r.MaxY
	}
	return dx + dy
}
