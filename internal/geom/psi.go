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
// onto the direction p→q does not extend past p toward q. We use the closed
// form (≤ 0, boundary included), which matches the closed-circle containment
// convention: a point p' exactly on L yields an enclosing circle passing
// through p itself, invalidating the pair under the closed rule, so pruning
// it is exact rather than merely safe.

// Pruner captures one pruning half-plane Ψ−(q, p): the pair (query point q,
// discovered point p). It precomputes the direction vector so that point and
// rectangle tests are a handful of flops.
type Pruner struct {
	// P is the discovered point through which the boundary line passes.
	P Point
	// dir is the vector q − p; Ψ− is {x : (x−P)·dir ≤ 0}.
	dir Point
	// strict restricts the region to the open half-plane {x : (x−P)·dir < 0}.
	// The symmetric rule (Lemma 5) uses strict pruners: in a self-join the
	// pruning point q' is itself a join candidate and lies exactly on the
	// boundary line, so the closed region would prune the valid pair
	// <q', q>. Boundary points skipped by a strict pruner are eliminated in
	// verification instead, so strictness trades a little filtering power
	// for soundness, never results.
	strict bool
}

// NewPruner builds the Ψ−(q, p) region for query point q and discovered
// point p. If p == q the region degenerates to the boundary line through p in
// an arbitrary orientation and prunes only p itself; callers normally never
// construct that case (a point never prunes with respect to itself).
func NewPruner(q, p Point) Pruner {
	return Pruner{P: p, dir: q.Sub(p)}
}

// NewStrictPruner builds the open variant of Ψ−(q, p); see Pruner.strict.
func NewStrictPruner(q, p Point) Pruner {
	return Pruner{P: p, dir: q.Sub(p), strict: true}
}

// PrunesPoint reports whether x lies in Ψ−(q, p), i.e. x cannot form an RCJ
// pair with q (Lemma 1).
func (pr Pruner) PrunesPoint(x Point) bool {
	d := x.Sub(pr.P).Dot(pr.dir)
	if pr.strict {
		return d < 0
	}
	return d <= 0
}

// PrunesRect reports whether the entire rectangle r lies in Ψ−(q, p), so the
// whole subtree under r can be discarded (Lemma 3). The test evaluates the
// linear functional (x−P)·dir at its maximizing corner: if even that corner
// is ≤ 0, all of r is.
func (pr Pruner) PrunesRect(r Rect) bool {
	x := r.MinX
	if pr.dir.X > 0 {
		x = r.MaxX
	}
	y := r.MinY
	if pr.dir.Y > 0 {
		y = r.MaxY
	}
	d := (Point{x, y}).Sub(pr.P).Dot(pr.dir)
	if pr.strict {
		return d < 0
	}
	return d <= 0
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
	pruners []Pruner
}

// Add appends the region Ψ−(q, p) to the set.
func (s *PrunerSet) Add(q, p Point) {
	s.pruners = append(s.pruners, NewPruner(q, p))
}

// AddStrict appends the open variant of Ψ−(q, p) to the set (Lemma 5
// symmetric pruning; see Pruner).
func (s *PrunerSet) AddStrict(q, p Point) {
	s.pruners = append(s.pruners, NewStrictPruner(q, p))
}

// Len returns the number of pruning regions in the set.
func (s *PrunerSet) Len() int { return len(s.pruners) }

// Reset empties the set, retaining capacity for reuse across query points.
func (s *PrunerSet) Reset() { s.pruners = s.pruners[:0] }

// PrunesPoint reports whether any region in the set prunes x.
//
// This is the hottest loop of a warm join — the bulk filter tests every
// discovered point against every query point's set, and the sets grow with
// every surviving discovery — so it is written as a tight kernel: the dot
// product is inlined over an indexed loop (no 40-byte Pruner copy per
// probe), the strict flag folds into the comparison without a branch on the
// common d≠0 path, and a successful probe moves its pruner to the front of
// the set. Consecutive probes are spatially adjacent (heap order ascends by
// distance), so the half-plane that pruned the last point very likely prunes
// the next — move-to-front keeps it first and the scan short. Reordering is
// invisible: the set is a pure disjunction.
func (s *PrunerSet) PrunesPoint(x Point) bool {
	for i := range s.pruners {
		pr := &s.pruners[i]
		d := (x.X-pr.P.X)*pr.dir.X + (x.Y-pr.P.Y)*pr.dir.Y
		if d < 0 || (d == 0 && !pr.strict) {
			if i > 0 {
				s.pruners[0], s.pruners[i] = s.pruners[i], s.pruners[0]
			}
			return true
		}
	}
	return false
}

// PrunesRect reports whether any single region in the set contains all of r.
// (Regions may not be combined: r could straddle two half-planes whose union
// covers it without either containing it; only containment by one region is
// a sound rectangle prune.) Same kernel shape as PrunesPoint: the functional
// is evaluated at its maximizing corner inline, and a successful probe moves
// to the front.
func (s *PrunerSet) PrunesRect(r Rect) bool {
	for i := range s.pruners {
		pr := &s.pruners[i]
		x := r.MinX
		if pr.dir.X > 0 {
			x = r.MaxX
		}
		y := r.MinY
		if pr.dir.Y > 0 {
			y = r.MaxY
		}
		d := (x-pr.P.X)*pr.dir.X + (y-pr.P.Y)*pr.dir.Y
		if d < 0 || (d == 0 && !pr.strict) {
			if i > 0 {
				s.pruners[0], s.pruners[i] = s.pruners[i], s.pruners[0]
			}
			return true
		}
	}
	return false
}
