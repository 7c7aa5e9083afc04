package core

import (
	"errors"
	"math"
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
// from them as post-filters (admitPair, and emit's TopK and Limit). An
// unweighted TopK run is answered from the short Gabriel edges first
// (shortTopK), with no triangulation unless they do not suffice. An input
// too wide for the triangulation's super triangle (GabrielFits, which the
// planner checks first) runs on the R-tree as OBJ after the scan.
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
	if j.topk != nil && j.topk.weight == nil {
		if done, err := j.shortTopK(ps, qs); done || err != nil {
			return err
		}
	}
	pairs, cands, err := j.gabrielPairs(ps, qs, j.ctxErr)
	if errors.Is(err, delaunay.ErrRange) {
		j.opts.Algorithm = AlgOBJ
		return j.forEachQLeaf()
	}
	if err != nil {
		return err
	}
	j.stats.Candidates += cands
	for k, pr := range pairs {
		if k%gabrielBatch == 0 {
			j.deliver()
			if err := j.ctxErr(); err != nil {
				return err
			}
		}
		p, q := ps[pr.P], qs[pr.Q]
		if j.admitPair(q, p) {
			j.emit(Pair{P: p, Q: q, Circle: geom.EnclosingCircle(p.P, q.P)})
		}
	}
	j.deliver()
	return nil
}

// shortTopK answers an unweighted TopK run from the short Gabriel edges
// (delaunay.Mesh.Short): from rankStart's radius it doubles r until at
// least k admitted pairs have Dist ≤ r, then offers them to the top-k
// heap, which ranks them as every path does. Every pair it leaves out is
// longer than r, so its Radius (Dist/2, exact from r ≥ 2⁻¹⁰²⁰ on) is
// above theirs and it ranks after all k. A static MaxDiameter caps r: at r
// = MaxDiameter every admitted pair is found, however few. It reports
// false, having offered nothing, when Short gives up (clustered or
// coincident-heavy input) or r reaches the inputs' diagonal; the caller
// then triangulates.
func (j *joiner) shortTopK(ps, qs []rtree.PointEntry) (bool, error) {
	k := j.topk.h.k
	r, diag := rankStart(ps, qs, j.opts.SelfJoin, k)
	for ; r < diag; r *= 2 {
		capped := j.opts.MaxDiameter > 0 && r >= j.opts.MaxDiameter
		if capped {
			r = j.opts.MaxDiameter
		}
		pairs, cands, ok, err := j.mesh.Short(ps, qs, j.opts.SelfJoin, r, j.ctxErr)
		j.stats.Candidates += cands
		kept := pairs[:0]
		for _, pr := range pairs {
			if g, keep := j.orient(ps, qs, pr); keep && j.admitPair(qs[g.Q], ps[g.P]) {
				kept = append(kept, g)
			}
		}
		done := ok && (len(kept) >= k || capped)
		if j.shortRound != nil {
			j.shortRound(r, ok, done)
		}
		if err != nil || !ok {
			return false, err
		}
		if done {
			for _, g := range kept {
				p, q := ps[g.P], qs[g.Q]
				j.emit(Pair{P: p, Q: q, Circle: geom.EnclosingCircle(p.P, q.P)})
			}
			return true, nil
		}
	}
	return false, nil
}

// rankStart returns shortTopK's first radius and the diagonal of the
// inputs' bounding box. The radius is 2√(k·area/(π·|P|·|Q|)), within which
// |P|·|Q| points spread uniformly over the box hold about 4k pairs
// (2k·width/(|P|·|Q|) on a line), and at least 2⁻³⁰ of the diagonal, so
// that few doublings reach it, and 2⁻¹⁰²⁰, above which halving a distance
// is exact.
func rankStart(ps, qs []rtree.PointEntry, self bool, k int) (r, diag float64) {
	nq := len(qs)
	if self {
		qs, nq = nil, len(ps)
	}
	minX, minY, maxX, maxY := delaunay.Bounds(ps, qs)
	w, h := maxX-minX, maxY-minY
	pairs := float64(len(ps)) * float64(nq)
	diag = math.Hypot(w, h)
	if area := w * h; area > 0 {
		r = 2 * math.Sqrt(float64(k)*area/(math.Pi*pairs))
	} else {
		r = 2 * float64(k) * diag / pairs
	}
	return math.Max(r, math.Max(diag*0x1p-30, 0x1p-1020)), diag
}

// gabrielBatch is the number of pairs runGabriel delivers at a time.
const gabrielBatch = 256

// gabrielPairs returns the RCJ pairs of ps and qs (of ps alone in a
// self-join, where qs is ps) sorted by (P id, Q id), and the candidates
// the triangulation tested. The slice is the mesh's, valid until its next
// call.
func (j *joiner) gabrielPairs(ps, qs []rtree.PointEntry, stop func() error) ([]delaunay.Pair, int64, error) {
	pairs, cands, err := j.mesh.Gabriel(ps, qs, j.opts.SelfJoin, stop)
	if err != nil {
		return nil, cands, err
	}
	out := pairs[:0]
	for _, pr := range pairs {
		if g, keep := j.orient(ps, qs, pr); keep {
			out = append(out, g)
		}
	}
	j.mesh.SortByID(out, ps, qs)
	return out, cands, nil
}

// orient orients one pair of the mesh's result: a self-join's in
// keepSelfPair's orientation, or false when it keeps neither.
func (j *joiner) orient(ps, qs []rtree.PointEntry, pr delaunay.Pair) (delaunay.Pair, bool) {
	p, q := ps[pr.P], qs[pr.Q]
	switch {
	case !j.opts.SelfJoin || j.keepSelfPair(p, q):
		return pr, true
	case j.keepSelfPair(q, p):
		return delaunay.Pair{P: pr.Q, Q: pr.P}, true
	}
	return delaunay.Pair{}, false
}

// GabrielFits reports whether the Gabriel path can triangulate points whose
// bounding box is r; wider inputs (coordinates beyond about 1e306) fall
// back to OBJ.
func GabrielFits(r geom.Rect) bool { return delaunay.Fits(r) }

// GabrielPointBytes bounds the memory the Gabriel path holds per
// triangulated point: the scanned point (24 B), its vertex, ~2 triangles of
// corners and twins, its insertion key and half a key of sort scratch, and
// its ~1 pair of a two-set join or ~2 of a self-join (8 B, sorted in place,
// and 8 B of sort scratch), with append slack. TestGabrielFootprint holds
// it to what a join's scratch keeps at its end, when every buffer is live:
// 134 B a point for a uniform two-set join, 152 for a self-join. A ranked
// join answered by the short edges holds the scanned points and Short's
// grid, 57 B a point; one that falls back holds the triangulation alone
// (Gabriel drops the grid).
const GabrielPointBytes = 200

// gabrielKeepBytes is the most Gabriel scratch a pooled scratch keeps
// (some 20k points' worth): a larger triangulation is dropped when its join
// ends rather than pinned under every later join that takes the scratch.
const gabrielKeepBytes = 4 << 20

// gabrielBytes returns the memory runGabriel's scratch holds.
func (s *scratch) gabrielBytes() int {
	return int(unsafe.Sizeof(rtree.PointEntry{}))*(cap(s.gabP)+cap(s.gabQ)) + s.mesh.Bytes()
}

// trimGabriel drops runGabriel's buffers if they hold more than
// gabrielKeepBytes.
func (s *scratch) trimGabriel() {
	if s.gabrielBytes() > gabrielKeepBytes {
		s.gabP, s.gabQ, s.mesh = nil, nil, delaunay.Mesh{}
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
		p, q := ps[pr.P], qs[pr.Q]
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
