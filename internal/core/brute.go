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
				ok, err := j.verifyPair(p, q)
				if err != nil {
					// The verifier stops on a satisfied Limit too: the
					// pairs this point already confirmed still leave.
					j.deliver()
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
// It runs the join's own verifier on a one-candidate batch; opts supplies
// the inputs' SelfJoin and DisableFaceRule (a view whose MBRs may be loose
// must turn the face rule off, as its joins do), and nothing else.
func VerifyPair(tq, tp SpatialIndex, p, q rtree.PointEntry, opts Options) (bool, error) {
	j := &joiner{tq: tq, tp: tp, opts: Options{SelfJoin: opts.SelfJoin, DisableFaceRule: opts.DisableFaceRule}}
	return j.verifyPair(p, q)
}

// verifyPair verifies the pair of p and q against both trees, as one
// candidate batch.
func (j *joiner) verifyPair(p, q rtree.PointEntry) (bool, error) {
	c := &candidate{pair: Pair{P: p, Q: q, Circle: geom.EnclosingCircle(p.P, q.P)}, alive: true}
	if err := j.verifyBoth([]*candidate{c}); err != nil {
		return false, err
	}
	return c.alive, nil
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
