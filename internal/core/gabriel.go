package core

import (
	"cmp"
	"errors"
	"slices"
	"unsafe"

	"repro/internal/delaunay"
	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// runGabriel computes the join as the bichromatic Gabriel graph of P ∪ Q
// (internal/delaunay): one scan of each tree, so every page is read once,
// one exact Delaunay triangulation, and two geom.DiscSign tests per edge.
// Pairs leave sorted by (P id, Q id), a self-join's in keepSelfPair's
// orientation, in batches of gabrielBatch; the query predicates select
// from them as post-filters (admitPair, and emit's TopK and Limit), which
// the planner never asks of this path. An input too wide for the
// triangulation's super triangle (GabrielFits, which the planner checks
// first) runs on the R-tree as OBJ after the scan.
func (j *joiner) runGabriel() error {
	var err error
	if j.gabP, err = scanInto(j.tp, j.gabP[:0]); err != nil {
		return err
	}
	ps, qs := j.gabP, j.gabP
	if !j.opts.SelfJoin {
		if j.gabQ, err = scanInto(j.tq, j.gabQ[:0]); err != nil {
			return err
		}
		qs = j.gabQ
	}
	pairs, cands, err := j.gabrielPairs(ps, qs, j.ctxErr)
	if errors.Is(err, delaunay.ErrRange) {
		j.opts.Algorithm = AlgOBJ
		return j.forEachQLeaf(j.processLeaf)
	}
	if err != nil {
		return err
	}
	j.stats.Candidates = cands
	for k, pr := range pairs {
		if k%gabrielBatch == 0 {
			j.deliver()
			if err := j.ctxErr(); err != nil {
				return err
			}
		}
		p, q := ps[pr.p], qs[pr.q]
		if j.admitPair(q, p) {
			j.emit(Pair{P: p, Q: q, Circle: geom.EnclosingCircle(p.P, q.P)})
		}
	}
	j.deliver()
	return nil
}

// gabrielBatch is the number of pairs runGabriel delivers at a time.
const gabrielBatch = 256

// gabrielPair is one result of the triangulation, keyed for sorting: the
// ids, then the indexes into the scanned points.
type gabrielPair struct {
	pid, qid int64
	p, q     int32
}

// gabrielPairs returns the RCJ pairs of ps and qs (of ps alone in a
// self-join, where qs is ps) sorted by (P id, Q id), and the candidates
// the triangulation tested. The slice is joiner scratch.
func (j *joiner) gabrielPairs(ps, qs []rtree.PointEntry, stop func() error) ([]gabrielPair, int64, error) {
	pairs, cands, err := j.mesh.Gabriel(ps, qs, j.opts.SelfJoin, stop)
	if err != nil {
		return nil, cands, err
	}
	out := slices.Grow(j.gabOut[:0], len(pairs))
	for _, pr := range pairs {
		p, q := ps[pr.P], qs[pr.Q]
		switch {
		case !j.opts.SelfJoin || j.keepSelfPair(p, q):
			out = append(out, gabrielPair{p.ID, q.ID, pr.P, pr.Q})
		case j.keepSelfPair(q, p):
			out = append(out, gabrielPair{q.ID, p.ID, pr.Q, pr.P})
		}
	}
	slices.SortFunc(out, func(a, b gabrielPair) int {
		if c := cmp.Compare(a.pid, b.pid); c != 0 {
			return c
		}
		return cmp.Compare(a.qid, b.qid)
	})
	j.gabOut = out
	return out, cands, nil
}

// GabrielFits reports whether the Gabriel path can triangulate points whose
// bounding box is r; wider inputs (coordinates beyond about 1e306) fall
// back to OBJ.
func GabrielFits(r geom.Rect) bool { return delaunay.Fits(r) }

// GabrielPointBytes bounds the memory the Gabriel path holds per
// triangulated point: the scanned point (24 B), its vertex, ~2 triangles of
// corners and twins, its insertion key, and its ~1 pair of a two-set join
// or ~2 of a self-join (8 B in the mesh, 24 B sorted), with append slack.
// TestGabrielFootprint holds it to what a join's scratch keeps at its end,
// when every buffer is live: 146 B a point for a uniform two-set join, 179
// for a self-join.
const GabrielPointBytes = 200

// gabrielKeepBytes is the most Gabriel scratch a pooled scratch keeps
// (some 20k points' worth): a larger triangulation is dropped when its join
// ends rather than pinned under every later join that takes the scratch.
const gabrielKeepBytes = 4 << 20

// gabrielBytes returns the memory runGabriel's scratch holds.
func (s *scratch) gabrielBytes() int {
	return int(unsafe.Sizeof(rtree.PointEntry{}))*(cap(s.gabP)+cap(s.gabQ)) +
		int(unsafe.Sizeof(gabrielPair{}))*cap(s.gabOut) + s.mesh.Bytes()
}

// trimGabriel drops runGabriel's buffers if they hold more than
// gabrielKeepBytes.
func (s *scratch) trimGabriel() {
	if s.gabrielBytes() > gabrielKeepBytes {
		s.gabP, s.gabQ, s.gabOut, s.mesh = nil, nil, nil, delaunay.Mesh{}
	}
}

// GabrielPairs is the join of two plain point slices (ps with itself when
// selfJoin) computed as runGabriel does, in O(n log n) expected time: the
// oracle for inputs too large for BruteForcePairs. It shares only
// geom.DiscSign with the R-tree join.
func GabrielPairs(ps, qs []rtree.PointEntry, selfJoin bool) []Pair {
	j := &joiner{opts: Options{SelfJoin: selfJoin}}
	if selfJoin {
		qs = ps
	}
	pairs, _, err := j.gabrielPairs(ps, qs, nil)
	if err != nil {
		return BruteForcePairs(ps, qs, selfJoin) // too wide to triangulate
	}
	out := make([]Pair, len(pairs))
	for i, pr := range pairs {
		p, q := ps[pr.p], qs[pr.q]
		out[i] = Pair{P: p, Q: q, Circle: geom.EnclosingCircle(p.P, q.P)}
	}
	return out
}

// scanInto appends every point of ix to buf, in leaf order.
func scanInto(ix SpatialIndex, buf []rtree.PointEntry) ([]rtree.PointEntry, error) {
	_, err := rtree.VisitLeaves(ix, nil, func(_ storage.PageID, n *rtree.Node) error {
		buf = n.AppendPointsTo(buf)
		return nil
	})
	return buf, err
}
