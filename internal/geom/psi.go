package geom

// This file implements the Ψ+/Ψ− pruning regions at the heart of the
// ring-constrained join (Definition 1 and Lemmas 1, 3, 5 of the paper).
//
// Given a query point q and a discovered point p, let L(q,p) be the line
// through p perpendicular to the segment qp. L divides the plane into
// Ψ+(q,p), the closed half-plane containing q, and Ψ−(q,p), the open
// complement beyond L. Lemma 1: any point p' ∈ Ψ−(q,p) cannot form an RCJ
// pair with q, because the enclosing circle of <p', q> necessarily covers p.
// Lemma 2 shows this region is maximal. Lemma 3 lifts the test to MBRs.
// Lemma 5 is the same construction with the pruning point drawn from Q
// instead of P (symmetric pruning, used by the OBJ algorithm).
//
// Membership test: x ∈ Ψ−(q,p) ⟺ (x−p)·(q−p) ≤ 0, i.e. the projection of x
// onto the direction p→q does not extend past p toward q. That is the ring
// polynomial, (x−p)·(q−p) = (p−x)·(p−q): x ∈ Ψ−(q,p) ⟺ DiscSign(x, q, p)
// ≤ 0, p in the closed disc of <x, q>. The closed form (≤ 0) is exact, not
// merely safe: a point p' exactly on L yields a circle through p itself,
// invalidating the pair under the closed rule. The kernels test the float
// value; only a float prune is confirmed (under-pruning is safe).

// pruner is the float form of one region Ψ−(q, p). Its query point q,
// which only the exact confirmation reads, is kept beside it as
// PrunerSet.qs[qi], so the probe loops stream 40-byte entries.
type pruner struct {
	// P is the discovered point through which the boundary line passes.
	P Point
	// dir is the float vector q − p; Ψ− is {x : (x−P)·dir ≤ 0}.
	dir Point
	qi  int32
	// strict restricts the region to the open half-plane {x : (x−P)·dir < 0}.
	// The symmetric rule (Lemma 5) uses strict pruners: in a self-join the
	// pruning point q' is itself a join candidate and lies exactly on the
	// boundary line, so the closed region would prune the valid pair
	// <q', q>. Boundary points skipped by a strict pruner are eliminated in
	// verification instead, so strictness trades a little filtering power
	// for soundness, never results.
	strict bool
}

// PrunerSet holds the pruning half-planes accumulated for one query point
// during the filter step. Appending is O(1); testing is linear in the number
// of pruners. The incremental-NN discovery order adds few of them (the first
// few nearest points prune almost everything), but under OBJ the set starts
// at L−1 strict sibling half-planes for a leaf of L points (Lemma 5; ~41 on
// a default page), so a probe may scan tens of entries — which is why the
// filter seeds a set only when it first probes it, and why the kernels below
// move a successful pruner to the front.
type PrunerSet struct {
	pruners []pruner
	qs      []Point // the pruners' query points
}

// Add appends the region Ψ−(q, p) to the set (p ≠ q: a point never prunes
// with respect to itself).
func (s *PrunerSet) Add(q, p Point) {
	s.pruners = append(s.pruners, pruner{P: p, dir: q.Sub(p), qi: s.qIndex(q)})
}

// AddStrict appends the open variant of Ψ−(q, p) to the set (Lemma 5
// symmetric pruning; see pruner.strict).
func (s *PrunerSet) AddStrict(q, p Point) {
	s.pruners = append(s.pruners, pruner{P: p, dir: q.Sub(p), qi: s.qIndex(q), strict: true})
}

// qIndex returns q's index in qs, appending it unless it is the last one
// (a set's regions normally share their query point).
func (s *PrunerSet) qIndex(q Point) int32 {
	if n := len(s.qs); n > 0 && s.qs[n-1] == q {
		return int32(n - 1)
	}
	s.qs = append(s.qs, q)
	return int32(len(s.qs) - 1)
}

// Len returns the number of pruning regions in the set.
func (s *PrunerSet) Len() int { return len(s.pruners) }

// Reset empties the set, retaining capacity for reuse across query points.
func (s *PrunerSet) Reset() { s.pruners, s.qs = s.pruners[:0], s.qs[:0] }

// decided reports whether a region's functional, whose float value at a
// point is d = t1+t2 ≤ 0, is certainly < 0 there. It is DiscSign(x, q, p)'s
// own float value (the same roundings of the same products), off by at most
// discErrBound·(|t1|+|t2|) = discErrBound·max(|t1+t2|, |t1−t2|); so −d
// beyond 2·discErrBound·|t1−t2| and an underflow term settles the sign, in
// a product and two compares.
func decided(d, t1, t2 float64) bool {
	ce := 2 * discErrBound * (t1 - t2)
	d += 0x1p-1020
	return d < -ce && d < ce
}

// exact reports whether x is exactly in region i: the decision behind a
// float prune that decided cannot settle.
func (s *PrunerSet) exact(i int, x Point) bool {
	pr := &s.pruners[i]
	sign := DiscSign(x, s.qs[pr.qi], pr.P)
	return sign < 0 || sign == 0 && !pr.strict
}

// toFront moves region i to the front of the set.
func (s *PrunerSet) toFront(i int) {
	if i > 0 {
		s.pruners[0], s.pruners[i] = s.pruners[i], s.pruners[0]
	}
}

// PrunesPoint reports whether any region in the set prunes x. A region
// prunes x only if DiscSign puts x in it; its float value may miss a region
// x is on the edge of, which is safe (verification decides).
//
// This is the hottest loop of a warm join — the bulk filter tests every
// discovered point against every query point's set, and the sets grow with
// every surviving discovery — so it is written as a tight kernel: the dot
// product is inlined over an indexed loop of 40-byte entries, the strict
// flag folds into the comparison without a branch on the common d≠0 path,
// and a successful probe moves its pruner to the front of the set.
// Consecutive probes are spatially adjacent (heap order ascends by
// distance), so the half-plane that pruned the last point very likely
// prunes the next. Reordering is invisible: the set is a pure disjunction.
// Only a float prune pays for decided, and only an undecided one leaves the
// loop for the exact sign (settlePoint): a call or a constant in the loop
// body costs every probe (measured ~5 ns per prune on a 20-region set).
func (s *PrunerSet) PrunesPoint(x Point) bool {
	prs := s.pruners
	for i := range prs {
		pr := &prs[i]
		t1, t2 := (x.X-pr.P.X)*pr.dir.X, (x.Y-pr.P.Y)*pr.dir.Y
		d := t1 + t2
		if !(d < 0 || (d == 0 && !pr.strict)) {
			continue
		}
		if decided(d, t1, t2) {
			s.toFront(i)
			return true
		}
		return s.settlePoint(i, x)
	}
	return false
}

// settlePoint decides x exactly against region i, whose float value could
// not, and against the regions after it.
func (s *PrunerSet) settlePoint(i int, x Point) bool {
	for ; i < len(s.pruners); i++ {
		if s.exact(i, x) {
			s.toFront(i)
			return true
		}
	}
	return false
}

// PrunesRect reports whether any single region in the set contains all of r.
// (Regions may not be combined: r could straddle two half-planes whose union
// covers it without either containing it; only containment by one region is
// a sound rectangle prune.) Same kernel shape as PrunesPoint, at the
// functional's maximizing corner (exact: a rounded difference keeps its
// sign).
func (s *PrunerSet) PrunesRect(r Rect) bool {
	prs := s.pruners
	for i := range prs {
		pr := &prs[i]
		c := maxCorner(r, pr.dir)
		t1, t2 := (c.X-pr.P.X)*pr.dir.X, (c.Y-pr.P.Y)*pr.dir.Y
		d := t1 + t2
		if !(d < 0 || (d == 0 && !pr.strict)) {
			continue
		}
		if decided(d, t1, t2) {
			s.toFront(i)
			return true
		}
		return s.settleRect(i, r)
	}
	return false
}

// settleRect is settlePoint for r's maximizing corners.
func (s *PrunerSet) settleRect(i int, r Rect) bool {
	for ; i < len(s.pruners); i++ {
		if s.exact(i, maxCorner(r, s.pruners[i].dir)) {
			s.toFront(i)
			return true
		}
	}
	return false
}

// maxCorner returns the corner of r that maximizes the functional x·dir.
func maxCorner(r Rect, dir Point) Point {
	c := Point{r.MinX, r.MinY}
	if dir.X > 0 {
		c.X = r.MaxX
	}
	if dir.Y > 0 {
		c.Y = r.MaxY
	}
	return c
}
