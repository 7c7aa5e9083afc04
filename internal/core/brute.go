package core

import (
	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// runBrute is the quadratic baseline of Section 1: a nested loop over P × Q
// issuing a circle range search against both trees for every pair. Its
// candidate count is |P|·|Q| (Table 4's BRUTE row). It exists as the ground
// truth the index algorithms are validated against and is only practical on
// small inputs.
func (j *joiner) runBrute() error {
	ps, err := scanAll(j.tp)
	if err != nil {
		return err
	}
	qs, err := scanAll(j.tq)
	if err != nil {
		return err
	}
	j.stats.Candidates = int64(len(ps)) * int64(len(qs))
	for _, q := range qs {
		if err := j.ctxErr(); err != nil {
			return err
		}
		for _, p := range ps {
			if j.opts.SelfJoin {
				if p.ID == q.ID {
					continue
				}
				if !j.keepSelfPair(p, q) {
					continue
				}
			}
			if !j.admitPair(q, p) {
				// Query predicates select output pairs; skipping before the
				// range searches keeps the baseline honest about their cost.
				continue
			}
			if !j.opts.SkipVerification {
				ok, err := VerifyPair(j.tq, j.tp, p, q, j.opts.SelfJoin)
				if err != nil {
					return err
				}
				if !ok {
					continue
				}
			}
			j.emit(Pair{P: p, Q: q, Circle: geom.EnclosingCircle(p.P, q.P)})
		}
		// One batch per outer point, as under INJ.
		j.deliver()
	}
	return nil
}

// scanAll returns every point of ix, in leaf order.
func scanAll(ix SpatialIndex) ([]rtree.PointEntry, error) {
	var out []rtree.PointEntry
	_, err := rtree.VisitLeaves(ix, nil, func(_ storage.PageID, n *rtree.Node) error {
		out = n.AppendPointsTo(out)
		return nil
	})
	return out, err
}

// VerifyPair checks the ring constraint for one specific pair: whether the
// smallest circle enclosing p ∈ P and q ∈ Q covers no other point of either
// index. It is the point lookup the paper's decision-support scenarios need
// when validating a proposed location rather than computing the full join.
func VerifyPair(tq, tp SpatialIndex, p, q rtree.PointEntry, selfJoin bool) (bool, error) {
	c := geom.EnclosingCircle(p.P, q.P)
	if selfJoin {
		hit, err := anyInCircle(tp, c, p.ID, q.ID)
		return !hit, err
	}
	hit, err := anyInCircle(tp, c, p.ID, p.ID)
	if err != nil || hit {
		return false, err
	}
	hit, err = anyInCircle(tq, c, q.ID, q.ID)
	return !hit, err
}

// anyInCircle reports whether the index holds a point other than the two
// excluded ids covered by the closed disk c, short-circuiting on the first
// hit.
func anyInCircle(t SpatialIndex, c geom.Circle, ex1, ex2 int64) (bool, error) {
	return anyInCircleRec(t, t.Root(), c, ex1, ex2)
}

func anyInCircleRec(t SpatialIndex, id storage.PageID, c geom.Circle, ex1, ex2 int64) (bool, error) {
	if id == storage.InvalidPageID {
		return false, nil
	}
	n, err := t.ReadNode(id)
	if err != nil {
		return false, err
	}
	if n.Leaf {
		// Hoisted form of c.Covers over the coordinate columns (see verify).
		cx, cy := c.Center.X, c.Center.Y
		r2 := c.Radius * c.Radius * (1 + geom.CoverTol)
		xs, ys := n.Xs, n.Ys
		for i, eid := range n.IDs {
			dx, dy := cx-xs[i], cy-ys[i]
			if dx*dx+dy*dy <= r2 && eid != ex1 && eid != ex2 {
				return true, nil
			}
		}
		return false, nil
	}
	for _, e := range n.Children {
		if c.IntersectsRect(e.MBR) {
			hit, err := anyInCircleRec(t, e.Child, c, ex1, ex2)
			if err != nil || hit {
				return hit, err
			}
		}
	}
	return false, nil
}

// BruteForcePairs computes the RCJ of two plain point slices with no index at
// all — O(n·m·(n+m)) — used by tests as an independent oracle that shares
// nothing with the tree code except the containment predicate.
func BruteForcePairs(ps, qs []rtree.PointEntry, selfJoin bool) []Pair {
	var out []Pair
	for _, q := range qs {
		for _, p := range ps {
			if selfJoin && p.ID >= q.ID {
				continue
			}
			c := geom.EnclosingCircle(p.P, q.P)
			valid := true
			for _, r := range ps {
				if r.ID != p.ID && (!selfJoin || r.ID != q.ID) && c.Covers(r.P) {
					valid = false
					break
				}
			}
			if valid {
				for _, r := range qs {
					if r.ID != q.ID && (!selfJoin || r.ID != p.ID) && c.Covers(r.P) {
						valid = false
						break
					}
				}
			}
			if valid {
				out = append(out, Pair{P: p, Q: q, Circle: c})
			}
		}
	}
	return out
}
