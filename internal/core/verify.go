package core

import (
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
// benchmarks, and its prefilter box (centre ± radius, not widened outward)
// dropped witnesses on a disc's extreme x or y. The match set is therefore
// exactly what IntersectsRect admits.
//
// Every decision is the exact sign of the run's ring on the pair's
// endpoints — geom.DiscSign, or geom.L1DiscSign under the Manhattan metric,
// picked by one flag per run at each call (a wrapper would be over the
// inliner's budget and cost every Euclidean decision a second call): a leaf
// point kills a candidate when its sign is ≤ 0 (the closed ring), and a face
// counts as inside when both its corners have sign < 0. The float tests in
// front of them — the leaf kernel's compare and IntersectsRect — use the
// candidate's outward geom.Band, so they only ever send a point or a
// subtree on to the exact test. The band is Euclidean under both metrics:
// an L1 ball lies inside the disc of the same centre and radius. The face
// rule uses the *strict* interior: the guaranteed point on a
// strictly-inside face is strictly inside the ring, and the pair's
// endpoints and every exact copy of them have sign 0, so the point is a
// witness whatever its id and the removal never needs the exclusion check
// a descent would perform. An open L1 ball is convex, like a disc, so a
// face whose two corners are strictly inside lies strictly inside.

// candidate is one filtered pair undergoing verification. The excluded id is
// side-dependent: P and Q have independent ID namespaces, so verification
// against TQ must ignore the pair's Q point and verification against TP its
// P point (both, for self-joins, where the namespaces coincide).
type candidate struct {
	pair Pair
	// band is the ring's outward float test, set by verify for the
	// verifier's pass.
	band  geom.Band
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

// verify runs Algorithm 3 for all alive candidates against tree t, marking
// killed candidates dead. Candidates whose circles were already removed are
// skipped for free.
func (j *joiner) verify(t SpatialIndex, cands []*candidate, s side) error {
	if t.Root() == storage.InvalidPageID {
		return nil
	}
	for _, c := range cands {
		if c.alive {
			c.band = c.pair.Circle.Band()
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
		// Tight kernel over the leaf's coordinate columns. A point outside
		// the candidate's outward band is rejected with one compare — most
		// points are — so the id exclusions and the exact sign run only
		// for points at or near the disc.
		xs, ys, ids := n.Xs, n.Ys, n.IDs
		l1 := j.opts.Metric == MetricL1
		for _, c := range cands {
			if !c.alive {
				continue
			}
			ex1, ex2 := j.excludedIDs(c, s)
			cx, cy, band := c.band.Center.X, c.band.Center.Y, c.band.R2
			for i := 0; i < len(ids); i++ {
				for ; i < len(ids); i++ {
					dx, dy := cx-xs[i], cy-ys[i]
					if dx*dx+dy*dy <= band && ids[i] != ex1 && ids[i] != ex2 {
						break
					}
				}
				if i == len(ids) {
					break
				}
				x := geom.Point{X: xs[i], Y: ys[i]}
				var sign int
				if l1 {
					sign = geom.L1DiscSign(c.pair.P.P, c.pair.Q.P, x)
				} else {
					sign = geom.DiscSign(c.pair.P.P, c.pair.Q.P, x)
				}
				if sign <= 0 {
					c.alive = false
					break
				}
			}
		}
		return nil
	}

	// Each entry is matched with the alive circles that may reach it (the
	// outward IntersectsRect test); the face rule kills what it can, and the
	// rest descend. The lists live on the joiner's verify stack, one segment
	// per level of the descent.
	for _, e := range n.Children {
		start := len(j.vstack)
		for _, c := range cands {
			if !c.alive || !c.band.IntersectsRect(e.MBR) {
				continue
			}
			if !j.opts.DisableFaceRule && containsFaceStrict(&c.pair, e.MBR, j.opts.Metric == MetricL1) {
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
// the pair's ring, the L1 ball under l1: both its corners have a sign < 0
// (see the comment at the top of the file).
func containsFaceStrict(pr *Pair, r geom.Rect, l1 bool) bool {
	corners := r.Corners()
	in := [4]bool{}
	for i, pt := range corners {
		if l1 {
			in[i] = geom.L1DiscSign(pr.P.P, pr.Q.P, pt) < 0
		} else {
			in[i] = geom.DiscSign(pr.P.P, pr.Q.P, pt) < 0
		}
	}
	for i := 0; i < 4; i++ {
		if in[i] && in[(i+1)%4] {
			return true
		}
	}
	return false
}
