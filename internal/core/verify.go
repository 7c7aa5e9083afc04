package core

import (
	"math"

	"repro/internal/geom"
	"repro/internal/storage"
)

// This file implements the verification step (Algorithm 3): a set of
// candidate circles is checked concurrently against an R-tree, removing every
// circle that covers an indexed point other than its own defining pair.
// Node entries are matched to circles in the four cases of Section 3.2:
//
//	point inside circle      → circle removed
//	disjoint entry           → subtree skipped for that circle
//	intersecting entry       → subtree descended
//	entry face inside circle → circle removed without descending (the MBR
//	                           property guarantees a covered point below)
//
// Section 3.2 also suggests matching a node's entries to the circles with a
// plane sweep. Verification matches them with a nested IntersectsRect loop
// in verifyNode instead: a sweep was measured slower on the leaf-kernel
// benchmarks, and its prefilter box (centre ± radius, not widened by
// CoverTol) dropped witnesses on a disc's extreme x or y that the exact test
// admits. The match set is therefore exactly what IntersectsRect admits.
//
// The face rule here uses the *strict* interior: the guaranteed point on a
// strictly-inside face is strictly inside the circle and therefore cannot be
// either defining point (those lie on the boundary), so the removal never
// needs the exclusion check a descent would perform. Rounding can break that
// argument for one point only — a defining point itself, whose distance to
// the rounded midpoint may fall short of the radius by more than CoverTol
// when the pair is tiny against its coordinates — so a face corner that IS
// a defining point never counts as inside: the subtree is descended and the
// point excluded by id, as everywhere else.

// candidate is one filtered pair undergoing verification. The excluded id is
// side-dependent: P and Q have independent ID namespaces, so verification
// against TQ must ignore the pair's Q point and verification against TP its
// P point (both, for self-joins, where the namespaces coincide).
type candidate struct {
	pair  Pair
	alive bool
}

// side tells the verifier which tree it is scanning, selecting the ids to
// exclude.
type side int

const (
	sideQ side = iota
	sideP
)

// excludedIDs returns the point ids the verifier must ignore for this
// candidate on the given side.
func (j *joiner) excludedIDs(c *candidate, s side) (int64, int64) {
	if j.opts.SelfJoin {
		return c.pair.P.ID, c.pair.Q.ID
	}
	if s == sideQ {
		return c.pair.Q.ID, c.pair.Q.ID
	}
	return c.pair.P.ID, c.pair.P.ID
}

// boundBatch re-applies the run's dynamic bound at verification time:
// candidates admitted when they were filtered but strictly beyond the
// CURRENT bound are killed before either tree is traversed, each one a full
// two-tree descent saved. Only a parallel TopK run can fire it — another
// worker's verified pairs tighten the shared bound between this batch's
// filter and its verification; a sequential run cannot move the bound
// inside a batch, and a static MaxDiameter was already enforced by the
// filter.
//
// The diameter kill uses the boundSlack-widened bound, like every
// traversal-level check: under-pruning a boundary tie is free, over-pruning
// would break the post-filter set identity. A weight-ranked run's bound is
// a score floor instead, checked exactly (same w(P)+w(Q) arithmetic as the
// heap — no slack needed); its diameter bound is the static MaxDiameter.
func (j *joiner) boundBatch(cands []*candidate) {
	if limit := j.maxPairDiameter() * boundSlack; !math.IsInf(limit, 1) {
		for _, c := range cands {
			if c.alive && 2*c.pair.Circle.Radius > limit {
				c.alive = false
				j.stats.BoundKilledCandidates++
			}
		}
	}
	if t := j.weightedTopK(); t != nil {
		if floor := t.scoreBound(); !math.IsInf(floor, -1) {
			for _, c := range cands {
				if c.alive && t.pairScore(c.pair) < floor {
					c.alive = false
					j.stats.BoundKilledCandidates++
				}
			}
		}
	}
}

// verify runs Algorithm 3 for all alive candidates against tree t, marking
// killed candidates dead. Candidates whose circles were already removed are
// skipped for free.
func (j *joiner) verify(t SpatialIndex, cands []*candidate, s side) error {
	if t.Root() == storage.InvalidPageID {
		return nil
	}
	for _, c := range cands {
		if c.alive {
			j.vstack = append(j.vstack, c)
		}
	}
	if len(j.vstack) == 0 {
		return nil
	}
	err := j.verifyNode(t, t.Root(), j.vstack, s)
	j.vstack = j.vstack[:0]
	return err
}

// verifyNode processes one node: leaf entries kill covering circles;
// non-leaf entries kill circles containing one of their faces, and the
// subtree is descended with the subset of circles intersecting its MBR.
func (j *joiner) verifyNode(t SpatialIndex, page storage.PageID, cands []*candidate, s side) error {
	if err := j.ctxErr(); err != nil {
		return err
	}
	n, err := t.ReadNode(page)
	if err != nil {
		return err
	}
	j.stats.VerifiedNodes++
	if n.Leaf {
		// Tight kernel over the leaf's coordinate columns. The containment
		// test is geom.Circle.Covers with the center/radius loads hoisted out
		// of the loop (bit-identical: Dist2 computes dx*dx+dy*dy the same
		// way). The distance test runs first — most points fail it, so the id
		// exclusions are rarely evaluated.
		xs, ys, ids := n.Xs, n.Ys, n.IDs
		for _, c := range cands {
			if !c.alive {
				continue
			}
			ex1, ex2 := j.excludedIDs(c, s)
			cx, cy := c.pair.Circle.Center.X, c.pair.Circle.Center.Y
			r2 := c.pair.Circle.Radius * c.pair.Circle.Radius * (1 + geom.CoverTol)
			for i, id := range ids {
				dx, dy := cx-xs[i], cy-ys[i]
				if dx*dx+dy*dy <= r2 && id != ex1 && id != ex2 {
					c.alive = false
					break
				}
			}
		}
		return nil
	}

	// Each entry is matched with the alive circles intersecting it (the
	// exact IntersectsRect test); the face rule kills what it can, and the
	// rest descend. The lists live on the joiner's verify stack, one segment
	// per level of the descent.
	for _, e := range n.Children {
		start := len(j.vstack)
		for _, c := range cands {
			if !c.alive || !c.pair.Circle.IntersectsRect(e.MBR) {
				continue
			}
			if !j.opts.DisableFaceRule && containsFaceStrict(&c.pair, e.MBR) {
				c.alive = false
				continue
			}
			j.vstack = append(j.vstack, c)
		}
		if len(j.vstack) == start {
			continue
		}
		err := j.verifyNode(t, e.Child, j.vstack[start:], s)
		j.vstack = j.vstack[:start]
		if err != nil {
			return err
		}
	}
	return nil
}

// containsFaceStrict reports whether some face of r lies strictly inside
// the pair's circle, ignoring corners that are one of the pair's own points.
// See the comment at the top of the file for why both are required.
func containsFaceStrict(pr *Pair, r geom.Rect) bool {
	corners := r.Corners()
	in := [4]bool{}
	for i, pt := range corners {
		in[i] = pr.Circle.StrictlyInside(pt) && !pt.Equal(pr.P.P) && !pt.Equal(pr.Q.P)
	}
	for i := 0; i < 4; i++ {
		if in[i] && in[(i+1)%4] {
			return true
		}
	}
	return false
}
